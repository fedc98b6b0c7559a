"""Unstructured magnitude pruning.

The paper's pruning step removes the smallest-magnitude weights of a
pre-trained model (§II.B "the absolute value of the weights" criterion)
globally: one threshold over all prunable weights.  Only weight matrices and
convolution kernels are prunable; bias, normalisation and embedding-token
parameters are a negligible fraction of the communication volume and pruning
them disproportionately hurts accuracy.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.nn.module import Module, Parameter
from repro.pruning.mask import PruningMask


#: A prunable parameter has at least this many dimensions (a weight matrix or
#: a convolution kernel) ...
MIN_NDIM = 2
#: ... and no lower-cased name containing one of these.
EXCLUDED_SUBSTRINGS = ("bias", "bn", "norm", "cls_token", "pos_embed")


def prunable_parameters(model: Module) -> List[Tuple[str, Parameter]]:
    """Parameters eligible for pruning: weight matrices and convolution kernels
    that are not normalisation or embedding-token parameters, matching common
    unstructured-pruning practice."""
    selected = []
    for name, param in model.named_parameters():
        lowered = name.lower()
        if param.ndim < MIN_NDIM:
            continue
        if any(token in lowered for token in EXCLUDED_SUBSTRINGS):
            continue
        selected.append((name, param))
    return selected


def magnitude_mask(model: Module, pruning_ratio: float) -> PruningMask:
    """Build a keep-mask that prunes the smallest-magnitude prunable weights.

    ``pruning_ratio`` is the fraction of *prunable* weights to remove, ranked
    together (0 = keep everything, 0.99 = keep 1 %), as swept in the paper's
    Fig. 6.
    """
    if not 0.0 <= pruning_ratio < 1.0:
        raise ValueError("pruning_ratio must be in [0, 1)")

    mask = PruningMask.dense(model)
    targets = prunable_parameters(model)
    if pruning_ratio == 0.0 or not targets:
        return mask

    all_magnitudes = np.concatenate([np.abs(param.data).reshape(-1) for _, param in targets])
    k = int(round(pruning_ratio * all_magnitudes.size))
    if k <= 0:
        return mask
    threshold = np.partition(all_magnitudes, k - 1)[k - 1]
    for name, param in targets:
        mask[name] = np.abs(param.data) > threshold
    return mask


def magnitude_prune(model: Module, pruning_ratio: float) -> PruningMask:
    """Prune a model in place and return the mask that was applied."""
    mask = magnitude_mask(model, pruning_ratio)
    mask.apply_to_weights(model)
    return mask
