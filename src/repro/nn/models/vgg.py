"""VGG family (Simonyan & Zisserman, 2015) adapted to CIFAR-sized inputs.

The paper trains VGG19 on CIFAR-10/100.  The standard CIFAR adaptation uses
3×3 convolutions with batch normalisation and a single fully connected
classifier head after global pooling.  The ``width_scale`` argument shrinks
every channel count proportionally so that CPU-only experiments remain
tractable; the layer *structure* (16 conv layers + head for VGG19) is
unchanged, which is what matters for gradient-distribution behaviour.

The forward pass is built entirely from layers that read a leading world axis
off their tensors, so the models accept a 5-D ``(world, N, C, H, W)`` input under
:func:`repro.nn.batched.replica_views` with no model-level changes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from repro.nn.module import Module, Sequential
from repro.nn.layers import Conv2d, BatchNorm2d, ReLU, MaxPool2d, Linear, AdaptiveAvgPool2d, Flatten
from repro.tensorlib import Tensor

# Channel plans: integers are conv output channels, "M" is a 2x2 max pool.
VGG_CONFIGS: Dict[str, List[Union[int, str]]] = {
    "vgg19": [64, 64, "M", 128, 128, "M", 256, 256, 256, 256, "M",
              512, 512, 512, 512, "M", 512, 512, 512, 512, "M"],
}


class VGG(Module):
    """VGG backbone with batch normalisation and a linear classifier head."""

    def __init__(
        self,
        config: str = "vgg19",
        num_classes: int = 10,
        in_channels: int = 3,
        width_scale: float = 1.0,
        seed: Optional[int] = None,
        max_pools: Optional[int] = None,
    ) -> None:
        super().__init__()
        if config not in VGG_CONFIGS:
            raise ValueError(f"unknown VGG config {config!r}; expected one of {sorted(VGG_CONFIGS)}")
        rng = np.random.default_rng(seed)
        self.config_name = config
        plan = VGG_CONFIGS[config]

        layers: List[Module] = []
        channels = in_channels
        pools_used = 0
        for entry in plan:
            if entry == "M":
                if max_pools is not None and pools_used >= max_pools:
                    continue
                layers.append(MaxPool2d(kernel_size=2, stride=2))
                pools_used += 1
                continue
            out_channels = max(4, int(round(entry * width_scale)))
            layers.append(Conv2d(channels, out_channels, kernel_size=3, padding=1, bias=False, rng=rng))
            layers.append(BatchNorm2d(out_channels))
            layers.append(ReLU())
            channels = out_channels

        self.features = Sequential(*layers)
        self.pool = AdaptiveAvgPool2d(1)
        self.flatten = Flatten()
        self.classifier = Linear(channels, num_classes, rng=rng)
        self.num_classes = num_classes

    def forward(self, x: Tensor) -> Tensor:
        x = self.features(x)
        x = self.pool(x)
        x = self.flatten(x)
        return self.classifier(x)


def vgg19(num_classes: int = 10, seed: Optional[int] = None) -> VGG:
    """Full-width VGG19 (CIFAR adaptation)."""
    return VGG("vgg19", num_classes=num_classes, width_scale=1.0, seed=seed)


def vgg19_mini(num_classes: int = 10, seed: Optional[int] = None) -> VGG:
    """VGG19 structure at 1/8 width, for CPU-scale experiments.

    The number of max-pool stages is capped so the network also accepts the
    8×8 synthetic images used by the benchmarks.
    """
    return VGG("vgg19", num_classes=num_classes, width_scale=0.125, seed=seed, max_pools=3)
