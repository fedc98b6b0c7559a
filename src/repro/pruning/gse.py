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

from typing import Dict

import numpy as np

from repro.pruning.mask import PruningMask


def apply_gse(mask: PruningMask, grads: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Apply Eq. (2) to a ``name -> gradient`` dict: zero the gradients of pruned weights.

    Masks per-rank dictionaries and arena-born stacks and returns ``grads``:
    an array whose last axis is contiguous in place, a transposed one (a
    Linear weight's) by a masked row-major copy, the layout staging reads
    fastest.  World-batched ``(world, *shape)`` stacks work unchanged: the
    ``(*shape)`` mask broadcasts over the leading world axis, multiplying each
    rank's slice exactly as the per-rank path does.
    """
    for name, grad in grads.items():
        keep = mask.get(name)
        if keep is not None and grad.ndim and grad.strides[-1] == grad.itemsize:
            np.multiply(grad, keep, out=grad)
        elif keep is not None:
            grads[name] = np.multiply(grad, keep, order="C")
    return grads
