"""Model zoo used by the paper's evaluation.

All four evaluation architectures are provided, each with a ``scale`` knob that
shrinks channel widths / embedding dimensions so that CPU-only training runs
finish in reasonable time.  ``scale=1.0`` reproduces the standard architecture
sizes (VGG19's 143M parameters, ResNet-152's 60M, ViT-Base-16's 86M); the
benchmarks use the ``*_mini`` factories.

The registry (:func:`build_model`, :data:`MODEL_REGISTRY`) is the entry point
used by the experiment driver so that benchmark configurations can refer to
models by name, mirroring the paper's workload table.
"""

from repro.nn.models.mlp import MLP, mlp_tiny
from repro.nn.models.vgg import VGG, vgg19, vgg19_mini
from repro.nn.models.resnet import (
    ResNet,
    resnet18,
    resnet152,
    resnet18_mini,
    resnet152_mini,
)
from repro.nn.models.vit import VisionTransformer, vit_base_16, vit_base_16_mini
from repro.nn.models.registry import (
    MODEL_REGISTRY,
    build_model,
    registered_model,
)

__all__ = [
    "MLP",
    "mlp_tiny",
    "VGG",
    "vgg19",
    "vgg19_mini",
    "ResNet",
    "resnet18",
    "resnet152",
    "resnet18_mini",
    "resnet152_mini",
    "VisionTransformer",
    "vit_base_16",
    "vit_base_16_mini",
    "MODEL_REGISTRY",
    "build_model",
    "registered_model",
]
