"""Unstructured magnitude pruning.

The paper's pruning step removes the smallest-magnitude weights of a
pre-trained model (§II.B "the absolute value of the weights" criterion) either
globally — one threshold over all prunable weights — or per layer.  Bias and
normalisation parameters are excluded by default: they are a negligible
fraction of the communication volume and pruning them disproportionately hurts
accuracy.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.nn.module import Module, Parameter
from repro.pruning.mask import PruningMask


def prunable_parameters(
    model: Module,
    min_ndim: int = 2,
    exclude_substrings: Iterable[str] = ("bias", "bn", "norm", "cls_token", "pos_embed"),
) -> List[Tuple[str, Parameter]]:
    """Parameters eligible for pruning.

    By default only weight matrices / convolution kernels (``ndim >= 2``) that
    are not normalisation or embedding-token parameters are pruned, matching
    common unstructured-pruning practice.
    """
    selected = []
    for name, param in model.named_parameters():
        lowered = name.lower()
        if param.ndim < min_ndim:
            continue
        if any(token in lowered for token in exclude_substrings):
            continue
        selected.append((name, param))
    return selected


def magnitude_mask(
    model: Module,
    pruning_ratio: float,
    scope: str = "global",
) -> PruningMask:
    """Build a keep-mask that prunes the smallest-magnitude weights.

    Parameters
    ----------
    pruning_ratio:
        Fraction of *prunable* weights to remove (0 = keep everything,
        0.99 = keep 1 %), as swept in the paper's Fig. 6.
    scope:
        ``"global"`` ranks all prunable weights together; ``"layer"`` prunes
        each layer to the same ratio independently.
    """
    if not 0.0 <= pruning_ratio < 1.0:
        raise ValueError("pruning_ratio must be in [0, 1)")
    if scope not in ("global", "layer"):
        raise ValueError("scope must be 'global' or 'layer'")

    mask = PruningMask.dense(model)
    targets = prunable_parameters(model)
    if pruning_ratio == 0.0 or not targets:
        return mask

    if scope == "global":
        all_magnitudes = np.concatenate([np.abs(param.data).reshape(-1) for _, param in targets])
        k = int(round(pruning_ratio * all_magnitudes.size))
        if k <= 0:
            return mask
        threshold = np.partition(all_magnitudes, k - 1)[k - 1]
        for name, param in targets:
            mask[name] = np.abs(param.data) > threshold
    else:
        for name, param in targets:
            magnitudes = np.abs(param.data).reshape(-1)
            k = int(round(pruning_ratio * magnitudes.size))
            if k <= 0:
                continue
            threshold = np.partition(magnitudes, k - 1)[k - 1]
            mask[name] = np.abs(param.data) > threshold
    return mask


def magnitude_prune(
    model: Module,
    pruning_ratio: float,
    scope: str = "global",
) -> PruningMask:
    """Prune a model in place and return the mask that was applied."""
    mask = magnitude_mask(model, pruning_ratio, scope=scope)
    mask.apply_to_weights(model)
    return mask
