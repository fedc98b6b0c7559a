"""PacTrain: pruning-aware adaptive sparse gradient compression.

This package implements the paper's primary contribution on top of the
substrates in :mod:`repro.nn`, :mod:`repro.ddp`, :mod:`repro.comm`,
:mod:`repro.compression` and :mod:`repro.pruning`:

* :class:`MaskTracker` — recovers and monitors the sparsity pattern of the
  *flattened* DDP gradient buckets (whose parameter names have been erased),
  and declares the pattern stable once it has not changed for a configurable
  number of iterations;
* :class:`PacTrainCompressor` — the adaptive compression scheme of
  Algorithm 1: while the mask is unstable, gradients are synchronised with a
  full fp32 all-reduce; once stable, only the non-masked coordinates are packed
  into a short dense tensor and all-reduced (optionally ternary-quantised),
  which is lossless with respect to the masked gradient and stays all-reduce
  compatible.

The worker algorithm itself (prune → GSE every iteration → mask tracking →
adaptive synchronisation) is one experiment cell:
``run_experiment(ExperimentConfig(...), PAPER_METHODS["pactrain"])`` from
:mod:`repro.simulation`, whose :class:`~repro.simulation.MethodSpec` carries
the pruning, GSE, quantisation and Mask Tracker settings.
"""

from repro.pactrain.mask_tracker import MaskTracker, MaskState
from repro.pactrain.compressor import PacTrainCompressor

__all__ = [
    "MaskTracker",
    "MaskState",
    "PacTrainCompressor",
]
