"""Gradient Sparsity Enforcement (GSE).

Pruning zeroes weights once, but gradient descent would immediately regrow
them: the gradient of a pruned weight is generally non-zero.  GSE (Eq. (2) of
the paper) closes that loop by masking the gradient with the weight's
zero-pattern after every backward pass:

    grad = (weight != 0) * grad

Applied every iteration, GSE keeps the weight sparsity pattern fixed, which in
turn makes the *gradient* sparsity pattern fixed and globally known — the
property the PacTrain compressor and Mask Tracker rely on.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.nn.module import Module
from repro.pruning.mask import PruningMask


def gse_from_weights(model: Module, atol: float = 0.0) -> PruningMask:
    """Derive the GSE mask from the model's current zero weights."""
    return PruningMask.from_weights(model, atol=atol)


def apply_gse(
    model: Module,
    mask: Optional[PruningMask] = None,
    grads: Optional[Dict[str, np.ndarray]] = None,
) -> Optional[Dict[str, np.ndarray]]:
    """Apply Eq. (2): zero the gradients of pruned (zero) weights.

    Two usage modes:

    * ``apply_gse(model, mask)`` — mask the ``param.grad`` buffers in place
      (the mode used inside the training loop);
    * ``apply_gse(model, mask, grads=...)`` — mask an external ``name ->
      gradient`` dict (per-rank dictionaries, arena-born stacks) and return
      it: an array whose last axis is contiguous in place, a transposed one
      (a Linear weight's) by a masked row-major copy, the layout staging
      reads fastest.  World-batched ``(world, *shape)`` stacks work
      unchanged: the ``(*shape)`` mask broadcasts over the leading world
      axis, multiplying each rank's slice exactly as the per-rank path does.

    If ``mask`` is omitted it is derived from the current weights, which is the
    literal reading of Eq. (2).
    """
    if mask is None:
        mask = gse_from_weights(model)

    if grads is None:
        mask.apply_to_gradients(model)
        return None

    for name, grad in grads.items():
        keep = mask.get(name)
        if keep is not None and grad.ndim and grad.strides[-1] == grad.itemsize:
            np.multiply(grad, keep, out=grad)
        elif keep is not None:
            grads[name] = np.multiply(grad, keep, order="C")
    return grads


def gradient_sparsity(model: Module) -> float:
    """Fraction of exactly-zero entries across all present gradients."""
    total = 0
    zeros = 0
    for _, param in model.named_parameters():
        if param.grad is None:
            continue
        total += param.grad.size
        zeros += int(np.sum(param.grad == 0.0))
    return zeros / total if total else 0.0
