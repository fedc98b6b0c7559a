"""Normalised mean squared error (NMSE) of compressed gradients.

The paper (§III.D) argues that determining the pruning mask by weight ranking
reduces the compression scheme's sensitivity to NMSE,
``NMSE(x, x_hat) = ||x - x_hat||^2 / ||x||^2``.  It quantifies the
aggregation error a compressor introduces relative to the exact average:
``CodecCompressor`` traces it on sampled aggregations, and the unit tests use
it (PacTrain without quantisation must be exact on masked gradients).
"""

from __future__ import annotations

import numpy as np


def nmse(reference: np.ndarray, approximation: np.ndarray) -> float:
    """``||x - x_hat||^2 / ||x||^2`` (0 for a perfect reconstruction)."""
    reference = np.asarray(reference, dtype=np.float64).reshape(-1)
    approximation = np.asarray(approximation, dtype=np.float64).reshape(-1)
    if reference.shape != approximation.shape:
        raise ValueError("reference and approximation must have the same number of elements")
    denom = float(np.sum(reference ** 2))
    if denom == 0.0:
        return 0.0 if float(np.sum(approximation ** 2)) == 0.0 else float("inf")
    return float(np.sum((reference - approximation) ** 2)) / denom
