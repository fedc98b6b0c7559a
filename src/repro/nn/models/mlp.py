"""A small multi-layer perceptron.

Not part of the paper's workload table, but used pervasively in the unit tests
and the Table 1 benchmark, where we need a model that converges in a handful of
CPU seconds while still exhibiting the gradient-sparsity behaviour that
pruning + GSE induce.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn.module import Module
from repro.nn.layers import Linear, ReLU
from repro.tensorlib import Tensor


class MLP(Module):
    """Fully connected classifier for flattened image (or feature) inputs."""

    def __init__(
        self,
        input_dim: int,
        hidden_dims: Sequence[int],
        num_classes: int,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        dims = [input_dim, *hidden_dims]
        self.blocks = []
        for index, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            linear = Linear(d_in, d_out, rng=rng)
            setattr(self, f"fc{index}", linear)
            relu = ReLU()
            setattr(self, f"act{index}", relu)
            self.blocks.append((linear, relu))
        self.head = Linear(dims[-1], num_classes, rng=rng)
        self.input_dim = input_dim
        self.num_classes = num_classes

    def forward(self, x: Tensor) -> Tensor:
        # Samples sit behind the weights' world axis, if any: flatten per sample.
        lead = self.head.weight.ndim - 1
        if x.ndim > lead + 1:
            x = x.flatten(start_dim=lead)
        for linear, act in self.blocks:
            x = act(linear(x))
        return self.head(x)


def mlp_tiny(num_classes: int = 10, input_dim: int = 3 * 8 * 8, seed: Optional[int] = None) -> MLP:
    """A two-hidden-layer MLP small enough for sub-second training iterations."""
    return MLP(input_dim=input_dim, hidden_dims=(64, 32), num_classes=num_classes, seed=seed)
