"""Neural-network pruning and gradient-sparsity enforcement.

PacTrain's first contribution is that *pruning can be used to enhance gradient
compression*: an unstructured pruning step makes the weights — and, through
Gradient Sparsity Enforcement (GSE), the gradients — sparse with a sparsity
pattern that is identical on every worker.

This package provides:

* :class:`PruningMask` — a named boolean mask over model parameters with
  application, statistics and (de)serialisation helpers;
* global magnitude-based unstructured pruning
  (:mod:`repro.pruning.magnitude`);
* GraSP importance scores (Wang et al., 2020), used by the paper to pick which
  weights to keep (:mod:`repro.pruning.grasp`);
* GSE (:mod:`repro.pruning.gse`), the ``grad = (weight != 0) * grad`` step of
  Eq. (2) applied after every backward pass.
"""

from repro.pruning.mask import PruningMask
from repro.pruning.magnitude import magnitude_prune, magnitude_mask, prunable_parameters
from repro.pruning.grasp import grasp_scores, grasp_prune
from repro.pruning.gse import apply_gse

__all__ = [
    "PruningMask",
    "magnitude_prune",
    "magnitude_mask",
    "prunable_parameters",
    "grasp_scores",
    "grasp_prune",
    "apply_gse",
]
