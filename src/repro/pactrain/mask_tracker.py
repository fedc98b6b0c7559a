"""Mask Tracker.

PyTorch DDP (and our simulator of it, :mod:`repro.ddp`) exposes gradients to
communication hooks only as flat 1-D bucket tensors with parameter names and
ordering erased.  PacTrain therefore cannot simply look up the pruning mask by
parameter name inside the hook; instead, the Mask Tracker recovers the sparsity
pattern *from the flat gradient itself* and monitors it across iterations:

* each iteration, the set of non-zero coordinates of the bucket is recorded;
* if the set is identical to the previous iteration's, a stability counter is
  incremented, otherwise it resets;
* once the counter reaches ``stability_threshold`` the pattern is declared
  **stable** and the compressor may switch from full synchronisation to
  compact sparse synchronisation (Algorithm 1, lines 7–12).

Because GSE pins the gradient zero-pattern to the (identical-across-workers)
weight zero-pattern, the tracked mask converges quickly and is the same on all
ranks, which is what makes the compact representation exchangeable with a
plain all-reduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np


@dataclass
class MaskState:
    """Tracker verdict for one bucket at one iteration."""

    mask: np.ndarray              # boolean, True = coordinate may be non-zero (must be sent)
    stable: bool                  # pattern unchanged for >= stability_threshold iterations
    consecutive_stable: int       # how many consecutive iterations the pattern has held
    changed: bool                 # whether the pattern differs from the previous iteration
    density: float                # fraction of coordinates that are non-zero

    @property
    def sparsity(self) -> float:
        return 1.0 - self.density


class MaskTracker:
    """Track per-bucket gradient sparsity patterns across iterations.

    Parameters
    ----------
    stability_threshold:
        Number of consecutive iterations the pattern must stay identical before
        it is considered stable.  The paper leaves the constant open; 2–5 works
        well, and ``examples/campaigns/ablation.json`` sweeps 1 and 8.
    min_sparsity:
        Patterns denser than ``1 - min_sparsity`` are never declared stable:
        compacting a nearly-dense gradient saves nothing but adds bookkeeping,
        so the tracker keeps the full all-reduce path in that regime.
    """

    def __init__(self, stability_threshold: int = 3, min_sparsity: float = 0.05) -> None:
        if stability_threshold < 1:
            raise ValueError("stability_threshold must be >= 1")
        if not 0.0 <= min_sparsity < 1.0:
            raise ValueError("min_sparsity must be in [0, 1)")
        self.stability_threshold = stability_threshold
        self.min_sparsity = min_sparsity
        self._previous: Dict[int, np.ndarray] = {}
        self._streak: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Core API
    # ------------------------------------------------------------------ #
    def update(self, bucket_index: int, nonzero_pattern: np.ndarray) -> MaskState:
        """Feed this iteration's non-zero pattern for one bucket.

        ``nonzero_pattern`` is a boolean array (True where the gradient is
        non-zero); :meth:`update_from_rank_gradients` derives it from the
        ranks' flat gradients.

        Stability is judged *conservatively*: the tracker maintains a keep-mask
        and counts an iteration as consistent when the observed non-zeros are a
        subset of that mask (a coordinate that happens to be exactly zero this
        iteration — a dead ReLU, an all-zero mini-batch — does not reset the
        streak, because compacting with a superset mask is still lossless).
        Any non-zero appearing *outside* the tracked mask means the sparsity
        pattern genuinely changed: the mask is widened to include it and the
        streak restarts, which sends the compressor back to full
        synchronisation exactly as Algorithm 1 line 12 requires.
        """
        pattern = np.asarray(nonzero_pattern, dtype=bool).reshape(-1)

        previous = self._previous.get(bucket_index)
        if previous is None or previous.shape != pattern.shape:
            tracked = pattern
            streak = 1
            changed = previous is not None
        elif bool(np.any(pattern & ~previous)):
            # New coordinates became active: the pattern changed for real.
            tracked = previous | pattern
            streak = 1
            changed = True
        else:
            tracked = previous
            streak = self._streak.get(bucket_index, 0) + 1
            changed = False
        self._previous[bucket_index] = tracked
        self._streak[bucket_index] = streak

        density = float(tracked.mean()) if tracked.size else 0.0
        sparse_enough = (1.0 - density) >= self.min_sparsity
        stable = streak >= self.stability_threshold and sparse_enough
        return MaskState(
            mask=tracked,
            stable=stable,
            consecutive_stable=streak,
            changed=changed,
            density=density,
        )

    def update_from_rank_gradients(self, bucket_index: int, flat_gradients, atol: float = 0.0) -> MaskState:
        """Union the non-zero patterns of all ranks' gradients and update.

        GSE makes per-rank patterns identical in theory; taking the union makes
        the compressor robust to any rank-local deviation (e.g. a coordinate
        that happens to be exactly zero on one rank), preserving losslessness.
        """
        union: Optional[np.ndarray] = None
        for flat in flat_gradients:
            pattern = np.abs(np.asarray(flat).reshape(-1)) > atol
            union = pattern if union is None else (union | pattern)
        if union is None:
            raise ValueError("update_from_rank_gradients needs at least one gradient")
        return self.update(bucket_index, union)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def streak(self, bucket_index: int) -> int:
        return self._streak.get(bucket_index, 0)

    def reset(self, bucket_index: Optional[int] = None) -> None:
        """Forget tracked state, for one bucket or all of them."""
        if bucket_index is None:
            self._previous.clear()
            self._streak.clear()
        else:
            self._previous.pop(bucket_index, None)
            self._streak.pop(bucket_index, None)
