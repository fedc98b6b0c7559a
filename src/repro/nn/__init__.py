"""Neural-network layers, the SGD optimiser and the evaluation model zoo.

This package plays the role PyTorch's ``torch.nn`` plays in the paper's
prototype.  It is deliberately small but complete enough to express the four
evaluation architectures (VGG19, ResNet-18, ResNet-152, ViT-Base-16) and to be
wrapped by the distributed data-parallel simulator in :mod:`repro.ddp`.
"""

from repro.nn.module import Module, Parameter, Sequential, ModuleList
from repro.nn.layers import (
    Linear,
    Conv2d,
    BatchNorm2d,
    LayerNorm,
    ReLU,
    GELU,
    Flatten,
    MaxPool2d,
    AdaptiveAvgPool2d,
    Identity,
    MultiHeadAttention,
)
from repro.nn.optim import SGD

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "ModuleList",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "LayerNorm",
    "ReLU",
    "GELU",
    "Flatten",
    "MaxPool2d",
    "AdaptiveAvgPool2d",
    "Identity",
    "MultiHeadAttention",
    "SGD",
]
