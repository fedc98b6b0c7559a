"""Model zoo: construction, forward shapes, determinism, registry, trainability."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import SGD
from repro.nn.models import (
    MODEL_REGISTRY,
    build_model,
    mlp_tiny,
    resnet18_mini,
    resnet152_mini,
    vgg11_mini,
    vgg19_mini,
    vit_base_16_mini,
)
from repro.nn.models.resnet import BasicBlock, Bottleneck, ResNet
from repro.nn.models.vgg import VGG, VGG_CONFIGS
from repro.nn.models.vit import VisionTransformer
from repro.tensorlib import Tensor, functional as F

MINI_FACTORIES = {
    "mlp": mlp_tiny,
    "vgg19": vgg19_mini,
    "resnet18": resnet18_mini,
    "resnet152": resnet152_mini,
    "vit": vit_base_16_mini,
}


@pytest.fixture
def batch(rng):
    return Tensor(rng.standard_normal((4, 3, 8, 8))), rng.integers(0, 10, 4)


class TestForwardShapes:
    @pytest.mark.parametrize("name", sorted(MINI_FACTORIES))
    def test_logits_shape(self, name, batch):
        model = MINI_FACTORIES[name](num_classes=10, seed=0)
        x, _ = batch
        assert model(x).shape == (4, 10)

    @pytest.mark.parametrize("name", sorted(MINI_FACTORIES))
    def test_backward_populates_all_gradients(self, name, batch):
        model = MINI_FACTORIES[name](num_classes=10, seed=0)
        x, y = batch
        loss = F.cross_entropy(model(x), y)
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())

    @pytest.mark.parametrize("name", sorted(MINI_FACTORIES))
    def test_sgd_steps_reduce_loss_on_same_batch(self, name, batch):
        model = MINI_FACTORIES[name](num_classes=10, seed=0)
        x, y = batch
        optimizer = SGD(model.parameters(), lr=0.01)
        loss_before = float(F.cross_entropy(model(x), y).data)
        for _ in range(5):
            model.zero_grad()
            loss = F.cross_entropy(model(x), y)
            loss.backward()
            optimizer.step()
        loss_after = float(F.cross_entropy(model(x), y).data)
        assert loss_after < loss_before


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(MINI_FACTORIES))
    def test_same_seed_same_weights(self, name):
        a = MINI_FACTORIES[name](num_classes=10, seed=5)
        b = MINI_FACTORIES[name](num_classes=10, seed=5)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_different_weights(self):
        a = mlp_tiny(seed=1)
        b = mlp_tiny(seed=2)
        assert not np.allclose(a.head.weight.data, b.head.weight.data)


class TestVGG:
    def test_vgg19_has_16_conv_layers(self):
        plan = VGG_CONFIGS["vgg19"]
        assert sum(1 for entry in plan if entry != "M") == 16

    def test_unknown_config_raises(self):
        with pytest.raises(ValueError):
            VGG("vgg23")

    def test_width_scale_reduces_parameters(self):
        wide = VGG("vgg11", width_scale=0.25, max_pools=3, seed=0)
        narrow = VGG("vgg11", width_scale=0.125, max_pools=3, seed=0)
        assert sum(p.size for p in narrow.parameters()) < sum(p.size for p in wide.parameters())

    def test_vgg11_mini_forward(self, rng):
        model = vgg11_mini(seed=0)
        out = model(Tensor(rng.standard_normal((2, 3, 8, 8))))
        assert out.shape == (2, 10)


class TestResNet:
    def test_resnet18_mini_block_plan(self):
        model = resnet18_mini(seed=0)
        assert model.layer_plan == [2, 2, 2, 2]

    def test_bottleneck_expansion(self):
        assert Bottleneck.expansion == 4
        assert BasicBlock.expansion == 1

    def test_resnet152_mini_uses_bottleneck(self):
        model = resnet152_mini(seed=0)
        assert isinstance(getattr(model.layer1, "0"), Bottleneck)

    def test_resnet152_mini_has_more_param_tensors_than_resnet18_mini(self):
        """The paper attributes ResNet-152's behaviour to its many evenly sized
        gradient tensors; the mini variants must preserve that relationship."""
        deep = resnet152_mini(seed=0)
        shallow = resnet18_mini(seed=0)
        assert len(deep.parameters()) > len(shallow.parameters())

    def test_custom_stage_plan(self, rng):
        model = ResNet(BasicBlock, [1, 1, 1, 1], num_classes=5, width_scale=0.0625, seed=0)
        out = model(Tensor(rng.standard_normal((2, 3, 8, 8))))
        assert out.shape == (2, 5)


class TestViT:
    def test_patchify_shape(self, rng):
        model = vit_base_16_mini(seed=0)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)))
        patches = model._patchify(x)
        assert patches.shape == (2, 16, 3 * 2 * 2)

    def test_rejects_indivisible_patch_size(self):
        with pytest.raises(ValueError):
            VisionTransformer(image_size=10, patch_size=3)

    def test_has_cls_token_and_pos_embed(self):
        model = vit_base_16_mini(seed=0)
        names = [name for name, _ in model.named_parameters()]
        assert "cls_token" in names
        assert "pos_embed" in names

    def test_depth_controls_block_count(self):
        model = VisionTransformer(image_size=8, patch_size=2, embed_dim=16, depth=3, num_heads=2, seed=0)
        assert len(list(model.blocks)) == 3


class TestRegistry:
    def test_paper_workloads_registered(self):
        for name in ("vgg19", "resnet18", "resnet152", "vit-base-16"):
            assert name in MODEL_REGISTRY

    def test_build_model_mini(self):
        model = build_model("resnet18", num_classes=7, seed=0)
        assert model.num_classes == 7

    def test_build_model_unknown(self):
        with pytest.raises(KeyError):
            build_model("alexnet")

    def test_register_model(self, monkeypatch):
        def factory(num_classes=10, seed=None):
            return mlp_tiny(num_classes, seed=seed)

        monkeypatch.setitem(MODEL_REGISTRY, "test-model", {"mini": factory, "full": factory})
        model = build_model("Test-Model", num_classes=3, seed=0)
        assert model.num_classes == 3
