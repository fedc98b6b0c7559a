"""Pruning: masks, magnitude criterion, GraSP scores, GSE."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.models import mlp_tiny, resnet18_mini, vgg19_mini
from repro.pruning import (
    PruningMask,
    apply_gse,
    grasp_prune,
    grasp_scores,
    magnitude_mask,
    magnitude_prune,
    prunable_parameters,
)
from repro.tensorlib import Tensor, functional as F


def backward_on(model, batch):
    images, labels = batch
    model.zero_grad()
    loss = F.cross_entropy(model(Tensor(images)), labels)
    loss.backward()


def pruned_weights_are_zero(mask, model, atol=0.0):
    """Whether every weight the mask prunes is (numerically) zero."""
    return all(
        not np.any(np.abs(param.data[~mask.masks[name]]) > atol)
        for name, param in model.named_parameters()
        if name in mask.masks
    )


def zero_fraction(model):
    """Fraction of exactly-zero parameters in the model."""
    params = [param.data for _, param in model.named_parameters()]
    return sum(int(np.sum(p == 0.0)) for p in params) / sum(p.size for p in params)


class TestPruningMask:
    def test_dense_mask_keeps_everything(self, tiny_model):
        mask = PruningMask.dense(tiny_model)
        assert mask.sparsity == 0.0
        assert mask.total_elements == sum(p.size for p in tiny_model.parameters())

    def test_sparsity_accounting(self):
        mask = PruningMask({"a": np.array([True, False, False, True])})
        assert mask.sparsity == pytest.approx(0.5)
        assert mask.density == pytest.approx(0.5)
        assert mask.kept_elements == 2

    def test_apply_to_weights(self, tiny_model):
        mask = PruningMask.dense(tiny_model)
        mask["fc0.weight"] = np.zeros_like(tiny_model.fc0.weight.data, dtype=bool)
        mask.apply_to_weights(tiny_model)
        np.testing.assert_array_equal(tiny_model.fc0.weight.data, 0.0)
        assert pruned_weights_are_zero(mask, tiny_model)

    def test_apply_to_gradients(self, tiny_model, sample_batch):
        backward_on(tiny_model, sample_batch)
        mask = PruningMask.dense(tiny_model)
        mask["fc0.weight"] = np.zeros_like(tiny_model.fc0.weight.data)  # stored as bool
        assert mask.masks["fc0.weight"].dtype == bool
        grads = apply_gse(mask, {name: p.grad for name, p in tiny_model.named_parameters()})
        np.testing.assert_array_equal(grads["fc0.weight"], 0.0)
        assert np.any(grads["fc1.weight"] != 0.0)

    def test_shape_mismatch_raises(self, tiny_model):
        mask = PruningMask({"fc0.weight": np.ones((2, 2), dtype=bool)})
        with pytest.raises(ValueError):
            mask.apply_to_weights(tiny_model)


class TestMagnitudePruning:
    def test_prunable_excludes_biases_and_norms(self):
        model = resnet18_mini(seed=0)
        names = {name for name, _ in prunable_parameters(model)}
        assert all("bias" not in n for n in names)
        assert all("bn" not in n for n in names)
        assert any("conv" in n for n in names)

    def test_global_ratio_respected(self, tiny_model):
        mask = magnitude_prune(tiny_model, 0.5)
        prunable = {name for name, _ in prunable_parameters(tiny_model)}
        kept = sum(mask.masks[name].sum() for name in prunable)
        total = sum(mask.masks[name].size for name in prunable)
        assert kept / total == pytest.approx(0.5, abs=0.02)

    def test_weights_zeroed_in_place(self, tiny_model):
        assert zero_fraction(tiny_model) == pytest.approx(0.0, abs=0.05)
        magnitude_prune(tiny_model, 0.7)
        assert zero_fraction(tiny_model) > 0.5

    def test_prunes_smallest_magnitudes(self):
        model = mlp_tiny(seed=0)
        weight = model.fc0.weight
        weight.data = np.linspace(-1, 1, weight.data.size).reshape(weight.data.shape)
        mask = magnitude_mask(model, 0.3)
        kept = mask.masks["fc0.weight"]
        dropped_magnitudes = np.abs(weight.data[~kept])
        kept_magnitudes = np.abs(weight.data[kept])
        assert dropped_magnitudes.max() <= kept_magnitudes.min() + 1e-12

    def test_zero_ratio_is_noop(self, tiny_model):
        before = tiny_model.fc0.weight.data.copy()
        mask = magnitude_prune(tiny_model, 0.0)
        np.testing.assert_array_equal(tiny_model.fc0.weight.data, before)
        assert mask.sparsity == 0.0

    def test_validation(self, tiny_model):
        with pytest.raises(ValueError):
            magnitude_mask(tiny_model, 1.0)

class TestGraSP:
    def test_scores_have_parameter_shapes(self, tiny_model, sample_batch):
        scores = grasp_scores(tiny_model, sample_batch, F.cross_entropy)
        for name, param in tiny_model.named_parameters():
            assert scores[name].shape == param.data.shape

    def test_weights_restored_after_scoring(self, tiny_model, sample_batch):
        before = {name: p.data.copy() for name, p in tiny_model.named_parameters()}
        grasp_scores(tiny_model, sample_batch, F.cross_entropy)
        for name, param in tiny_model.named_parameters():
            np.testing.assert_allclose(param.data, before[name], atol=1e-12)

    def test_grasp_prune_hits_ratio(self, sample_batch):
        model = vgg19_mini(seed=0)
        mask = grasp_prune(model, sample_batch, F.cross_entropy, pruning_ratio=0.5)
        prunable = {name for name, _ in prunable_parameters(model)}
        kept = sum(mask.masks[name].sum() for name in prunable)
        total = sum(mask.masks[name].size for name in prunable)
        assert kept / total == pytest.approx(0.5, abs=0.05)
        assert pruned_weights_are_zero(mask, model)

    def test_zero_ratio_keeps_dense(self, tiny_model, sample_batch):
        mask = grasp_prune(tiny_model, sample_batch, F.cross_entropy, pruning_ratio=0.0)
        assert mask.sparsity == 0.0

    def test_invalid_ratio(self, tiny_model, sample_batch):
        with pytest.raises(ValueError):
            grasp_prune(tiny_model, sample_batch, F.cross_entropy, pruning_ratio=1.0)


class TestGSE:
    def test_gse_zeroes_gradients_of_pruned_weights(self, tiny_model, sample_batch):
        mask = magnitude_prune(tiny_model, 0.6)
        backward_on(tiny_model, sample_batch)
        grads = {name: p.grad.copy() for name, p in tiny_model.named_parameters()}

        def zero_fraction_of(grads):
            return sum(int(np.sum(g == 0.0)) for g in grads.values()) / sum(g.size for g in grads.values())

        assert zero_fraction_of(grads) < 0.3
        apply_gse(mask, grads)
        pruned = ~mask.masks["fc0.weight"]
        np.testing.assert_array_equal(grads["fc0.weight"][pruned], 0.0)
        assert zero_fraction_of(grads) > 0.3

    def test_gse_formula_matches_eq2(self, tiny_model, sample_batch):
        """grad_after == (weight != 0) * grad_before, element for element."""
        magnitude_prune(tiny_model, 0.5)
        backward_on(tiny_model, sample_batch)
        params = dict(tiny_model.named_parameters())
        before = {name: p.grad.copy() for name, p in params.items()}
        mask = PruningMask({name: p.data != 0.0 for name, p in params.items()})
        after = apply_gse(mask, {name: grad.copy() for name, grad in before.items()})
        for name, param in params.items():
            np.testing.assert_array_equal(after[name], (param.data != 0.0) * before[name])

    def test_gse_on_external_gradient_dict(self, tiny_model, sample_batch):
        mask = magnitude_prune(tiny_model, 0.5)
        backward_on(tiny_model, sample_batch)
        grads = {name: p.grad.copy() for name, p in tiny_model.named_parameters()}
        before = {name: grad.copy() for name, grad in grads.items()}
        arrays = {name: id(grad) for name, grad in grads.items()}
        masked = apply_gse(mask, grads)
        pruned = ~mask.masks["fc1.weight"]
        assert pruned.any() and np.any(before["fc1.weight"][pruned] != 0.0)
        # Masked in place: the same dict holding the same arrays, no copies.
        assert masked is grads
        assert {name: id(grad) for name, grad in grads.items()} == arrays
        for name, grad in grads.items():
            np.testing.assert_array_equal(grad, before[name] * mask.masks[name], err_msg=name)
        # The model's own gradients are not the dict's arrays and stay unmasked.
        assert np.any(tiny_model.fc1.weight.grad[pruned] != 0.0)

    def test_gse_masks_world_stacks_of_any_layout_bit_for_bit(self, tiny_model):
        """World-batched Linear weight stacks are transposed views: they are
        replaced by row-major masked copies, the rest masked in place, and
        every result has the bytes of ``grad * keep``, signed zeros included."""
        rng = np.random.default_rng(0)
        mask = magnitude_prune(tiny_model, 0.5)
        grads = {}
        for name, param in tiny_model.named_parameters():
            stack = rng.standard_normal((3,) + param.shape[::-1])
            grads[name] = stack.swapaxes(-1, -2) if param.ndim == 2 else stack
        transposed = {name for name, grad in grads.items() if not grad.flags.c_contiguous}
        assert transposed and transposed != set(grads)
        arrays = dict(grads)
        want = {name: grad * mask.masks[name] for name, grad in grads.items()}
        apply_gse(mask, grads)
        for name, grad in grads.items():
            assert grad.tobytes() == want[name].tobytes(), name
            assert (grad is arrays[name]) == (name not in transposed), name
            assert grad.flags.c_contiguous, name

    def test_gse_keeps_sparsity_through_training_step(self, tiny_model, sample_batch):
        from repro.nn import SGD

        mask = magnitude_prune(tiny_model, 0.7)
        optimizer = SGD(tiny_model.parameters(), lr=0.1, momentum=0.9)
        for _ in range(3):
            backward_on(tiny_model, sample_batch)
            grads = apply_gse(mask, {name: p.grad for name, p in tiny_model.named_parameters()})
            for name, param in tiny_model.named_parameters():
                param.grad = grads[name]
            optimizer.step()
        assert pruned_weights_are_zero(mask, tiny_model, atol=1e-12)
