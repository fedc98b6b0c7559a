"""ResNet family (He et al., 2015) adapted to CIFAR-sized inputs.

Both evaluation depths from the paper are provided:

* ResNet-18 — ``BasicBlock`` with layer plan ``[2, 2, 2, 2]``;
* ResNet-152 — ``Bottleneck`` with layer plan ``[3, 8, 36, 3]``.

The forward pass is built entirely from layers that read a leading world
axis off their tensors (conv/norm/pool/flatten/linear), so these models accept
a 5-D ``(world, N, C, H, W)`` input under
:func:`repro.nn.batched.replica_views` with no model-level changes.

As with the VGG models, ``width_scale`` shrinks channel counts (and the
``*_mini`` factories additionally shrink the stage plan) so that CPU training
is feasible while preserving the residual structure that drives the "evenly
distributed gradient components" behaviour the paper attributes to ResNet-152.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn.module import Module, Sequential
from repro.nn.layers import Conv2d, BatchNorm2d, ReLU, Linear, AdaptiveAvgPool2d, Flatten, Identity
from repro.tensorlib import Tensor


class BasicBlock(Module):
    """Two 3×3 convolutions with an identity (or 1×1 projection) shortcut."""

    expansion = 1

    def __init__(
        self,
        in_channels: int,
        channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.conv1 = Conv2d(in_channels, channels, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(channels)
        self.relu = ReLU()
        self.conv2 = Conv2d(channels, channels, 3, stride=1, padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(channels)
        out_channels = channels * self.expansion
        if stride != 1 or in_channels != out_channels:
            self.shortcut = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        out = out + self.shortcut(x)
        return self.relu(out)


class Bottleneck(Module):
    """1×1 / 3×3 / 1×1 bottleneck block used by ResNet-50/101/152."""

    expansion = 4

    def __init__(
        self,
        in_channels: int,
        channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        out_channels = channels * self.expansion
        self.conv1 = Conv2d(in_channels, channels, 1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(channels)
        self.conv2 = Conv2d(channels, channels, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(channels)
        self.conv3 = Conv2d(channels, out_channels, 1, bias=False, rng=rng)
        self.bn3 = BatchNorm2d(out_channels)
        self.relu = ReLU()
        if stride != 1 or in_channels != out_channels:
            self.shortcut = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.relu(self.bn2(self.conv2(out)))
        out = self.bn3(self.conv3(out))
        out = out + self.shortcut(x)
        return self.relu(out)


class ResNet(Module):
    """Residual network over CIFAR-sized images.

    Parameters
    ----------
    block:
        ``BasicBlock`` or ``Bottleneck``.
    layers:
        Number of blocks in each of the four stages.
    width_scale:
        Multiplier applied to the canonical ``(64, 128, 256, 512)`` stage widths.
    """

    def __init__(
        self,
        block,
        layers: Sequence[int],
        num_classes: int = 10,
        in_channels: int = 3,
        width_scale: float = 1.0,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        widths = [max(4, int(round(w * width_scale))) for w in (64, 128, 256, 512)]

        self.stem_conv = Conv2d(in_channels, widths[0], 3, stride=1, padding=1, bias=False, rng=rng)
        self.stem_bn = BatchNorm2d(widths[0])
        self.relu = ReLU()

        self._in_channels = widths[0]
        self.layer1 = self._make_stage(block, widths[0], layers[0], stride=1, rng=rng)
        self.layer2 = self._make_stage(block, widths[1], layers[1], stride=2, rng=rng)
        self.layer3 = self._make_stage(block, widths[2], layers[2], stride=2, rng=rng)
        self.layer4 = self._make_stage(block, widths[3], layers[3], stride=2, rng=rng)

        self.pool = AdaptiveAvgPool2d(1)
        self.flatten = Flatten()
        self.fc = Linear(widths[3] * block.expansion, num_classes, rng=rng)
        self.num_classes = num_classes
        self.layer_plan = list(layers)

    def _make_stage(self, block, channels: int, blocks: int, stride: int, rng) -> Sequential:
        strides = [stride] + [1] * (blocks - 1)
        stage_blocks: List[Module] = []
        for s in strides:
            stage_blocks.append(block(self._in_channels, channels, stride=s, rng=rng))
            self._in_channels = channels * block.expansion
        return Sequential(*stage_blocks)

    def forward(self, x: Tensor) -> Tensor:
        x = self.relu(self.stem_bn(self.stem_conv(x)))
        x = self.layer1(x)
        x = self.layer2(x)
        x = self.layer3(x)
        x = self.layer4(x)
        x = self.pool(x)
        x = self.flatten(x)
        return self.fc(x)


def resnet18(num_classes: int = 10, seed: Optional[int] = None) -> ResNet:
    """Full-width ResNet-18 (CIFAR adaptation)."""
    return ResNet(BasicBlock, [2, 2, 2, 2], num_classes=num_classes, seed=seed)


def resnet152(num_classes: int = 10, seed: Optional[int] = None) -> ResNet:
    """Full-width ResNet-152 (CIFAR adaptation)."""
    return ResNet(Bottleneck, [3, 8, 36, 3], num_classes=num_classes, seed=seed)


def resnet18_mini(num_classes: int = 10, seed: Optional[int] = None) -> ResNet:
    """ResNet-18 structure at 1/8 width for CPU-scale experiments."""
    return ResNet(BasicBlock, [2, 2, 2, 2], num_classes=num_classes, width_scale=0.125, seed=seed)


def resnet152_mini(num_classes: int = 10, seed: Optional[int] = None) -> ResNet:
    """Deep bottleneck ResNet standing in for ResNet-152 at CPU scale.

    Keeps the bottleneck block type and a deeper-than-ResNet-18 stage plan while
    reducing width, so the gradient-distribution characteristics (many small,
    evenly sized parameter tensors) resemble the full model's.  The width is
    kept at 1/8 (not lower): the bottleneck 1x1 convolutions become too narrow
    to survive unstructured pruning below that.
    """
    return ResNet(Bottleneck, [2, 3, 4, 2], num_classes=num_classes, width_scale=0.125, seed=seed)
