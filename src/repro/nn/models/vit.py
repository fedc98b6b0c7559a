"""Vision Transformer (Dosovitskiy et al., 2021) adapted to CIFAR-sized inputs.

The paper's fourth evaluation model is ViT-Base-16 (12 encoder blocks, 768-d
embeddings, 12 heads, 16×16 patches).  The implementation below supports those
hyper-parameters at ``scale=1`` and offers a ``*_mini`` factory with a reduced
embedding dimension / depth and a patch size matched to the small synthetic
images used in CPU experiments.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.layers import Linear, LayerNorm, GELU, Dropout, MultiHeadAttention
from repro.tensorlib import Tensor, init


class TransformerBlock(Module):
    """Pre-norm transformer encoder block: MHSA + MLP, both with residuals."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        mlp_ratio: float = 4.0,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        hidden = int(embed_dim * mlp_ratio)
        self.norm1 = LayerNorm(embed_dim)
        self.attn = MultiHeadAttention(embed_dim, num_heads, rng=rng)
        self.norm2 = LayerNorm(embed_dim)
        self.mlp_fc1 = Linear(embed_dim, hidden, rng=rng)
        self.mlp_act = GELU()
        self.mlp_fc2 = Linear(hidden, embed_dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng) if dropout > 0 else None

    def forward(self, x: Tensor) -> Tensor:
        attn_out = self.attn(self.norm1(x))
        if self.dropout is not None:
            attn_out = self.dropout(attn_out)
        x = x + attn_out
        mlp_out = self.mlp_fc2(self.mlp_act(self.mlp_fc1(self.norm2(x))))
        if self.dropout is not None:
            mlp_out = self.dropout(mlp_out)
        return x + mlp_out


class VisionTransformer(Module):
    """ViT classifier with learned positional embeddings and a class token."""

    def __init__(
        self,
        image_size: int = 32,
        patch_size: int = 4,
        in_channels: int = 3,
        embed_dim: int = 768,
        depth: int = 12,
        num_heads: int = 12,
        mlp_ratio: float = 4.0,
        num_classes: int = 10,
        dropout: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        if image_size % patch_size != 0:
            raise ValueError("image_size must be divisible by patch_size")
        rng = np.random.default_rng(seed)
        self.image_size = image_size
        self.patch_size = patch_size
        self.embed_dim = embed_dim
        self.num_patches = (image_size // patch_size) ** 2
        patch_dim = in_channels * patch_size * patch_size

        self.patch_embed = Linear(patch_dim, embed_dim, rng=rng)
        self.cls_token = Parameter(init.truncated_normal((1, 1, embed_dim), rng))
        self.pos_embed = Parameter(init.truncated_normal((1, self.num_patches + 1, embed_dim), rng))
        self.blocks = ModuleList(
            TransformerBlock(embed_dim, num_heads, mlp_ratio, dropout, rng=rng) for _ in range(depth)
        )
        self.norm = LayerNorm(embed_dim)
        self.head = Linear(embed_dim, num_classes, rng=rng)
        self.num_classes = num_classes
        self.depth = depth

    def _patchify(self, x: Tensor) -> Tensor:
        """Rearrange ``(..., C, H, W)`` into ``(..., num_patches, C*p*p)``.

        Extra leading axes (the world axis of batched-rank execution) pass
        through untouched; each image is patchified exactly as in the 4-D case.
        """
        *lead, c, h, w = x.shape
        p = self.patch_size
        x = x.reshape(*lead, c, h // p, p, w // p, p)
        nl = len(lead)
        x = x.transpose(*range(nl), nl + 1, nl + 3, nl, nl + 2, nl + 4)
        return x.reshape(*lead, (h // p) * (w // p), c * p * p)

    def forward(self, x: Tensor) -> Tensor:
        # (*world, N, C, H, W) input; under replica views the class token is
        # (world, 1, 1, D) and the position embedding (world, 1, P+1, D), and
        # each world slice builds the plain call's graph — the class-token
        # concat's accumulation order included.
        n = x.shape[-4]
        tokens = self.patch_embed(self._patchify(x))  # (*world, N, P, D)

        cls = self.cls_token
        cls_batch = Tensor.cat(
            [cls[..., 0:1, :, :] for _ in range(n)], axis=-3
        ) if n > 1 else cls.reshape(cls.shape)
        tokens = Tensor.cat([cls_batch, tokens], axis=-2)
        tokens = tokens + self.pos_embed

        for block in self.blocks:
            tokens = block(tokens)
        tokens = self.norm(tokens)
        return self.head(tokens[..., 0, :])


def vit_base_16(num_classes: int = 10, image_size: int = 32, seed: Optional[int] = None) -> VisionTransformer:
    """ViT-Base/16 hyper-parameters (patch size reduced to fit CIFAR images)."""
    return VisionTransformer(
        image_size=image_size,
        patch_size=4,
        embed_dim=768,
        depth=12,
        num_heads=12,
        num_classes=num_classes,
        seed=seed,
    )


def vit_base_16_mini(num_classes: int = 10, image_size: int = 8, seed: Optional[int] = None) -> VisionTransformer:
    """Reduced ViT (4 blocks, 48-d embeddings) for CPU-scale experiments."""
    return VisionTransformer(
        image_size=image_size,
        patch_size=2,
        embed_dim=48,
        depth=4,
        num_heads=4,
        mlp_ratio=2.0,
        num_classes=num_classes,
        seed=seed,
    )
