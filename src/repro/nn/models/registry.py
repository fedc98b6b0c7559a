"""Model registry mapping workload names to factory functions.

The benchmark harness refers to models by the names used in the paper's figures
("vgg19", "resnet18", "resnet152", "vit-base-16"); each maps to the mini
variant by default (CPU-feasible) with a ``full`` flag to request the
paper-sized architecture.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.nn.module import Module
from repro.nn.models.mlp import mlp_tiny
from repro.nn.models.vgg import vgg19, vgg19_mini
from repro.nn.models.resnet import resnet18, resnet152, resnet18_mini, resnet152_mini
from repro.nn.models.vit import vit_base_16, vit_base_16_mini

ModelFactory = Callable[..., Module]

MODEL_REGISTRY: Dict[str, Dict[str, ModelFactory]] = {
    "mlp": {"mini": mlp_tiny, "full": mlp_tiny},
    "vgg19": {"mini": vgg19_mini, "full": vgg19},
    "resnet18": {"mini": resnet18_mini, "full": resnet18},
    "resnet152": {"mini": resnet152_mini, "full": resnet152},
    "vit-base-16": {"mini": vit_base_16_mini, "full": vit_base_16},
}


def registered_model(name: str) -> str:
    """The registered name ``name`` spells (case-insensitive).

    Raises
    ------
    KeyError
        If ``name`` is not registered.
    """
    key = name.lower()
    if key not in MODEL_REGISTRY:
        raise KeyError(f"unknown model {name!r}; registered models: {sorted(MODEL_REGISTRY)}")
    return key


def build_model(name: str, num_classes: int = 10, seed: Optional[int] = None, full: bool = False) -> Module:
    """Instantiate a registered model by name (``KeyError`` if it is not registered)."""
    factory = MODEL_REGISTRY[registered_model(name)]["full" if full else "mini"]
    return factory(num_classes=num_classes, seed=seed)
