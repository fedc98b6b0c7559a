"""Pruning masks.

A :class:`PruningMask` maps parameter names to boolean arrays (``True`` =
keep).  Masks are created by the pruning criteria in
:mod:`repro.pruning.magnitude` / :mod:`repro.pruning.grasp`, applied to model
weights (zeroing pruned entries) and re-applied to gradients by GSE so the
pruned coordinates stay at exactly zero throughout training — the property the
PacTrain compressor exploits.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.nn.module import Module


class PruningMask:
    """Named boolean keep-masks over a model's parameters."""

    def __init__(self, masks: Optional[Dict[str, np.ndarray]] = None) -> None:
        self.masks: Dict[str, np.ndarray] = {}
        if masks:
            for name, mask in masks.items():
                self.masks[name] = np.asarray(mask, dtype=bool)

    # ------------------------------------------------------------------ #
    # Mapping interface
    # ------------------------------------------------------------------ #
    def __setitem__(self, name: str, mask: np.ndarray) -> None:
        self.masks[name] = np.asarray(mask, dtype=bool)

    def get(self, name: str, default=None):
        return self.masks.get(name, default)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def total_elements(self) -> int:
        return int(sum(mask.size for mask in self.masks.values()))

    @property
    def kept_elements(self) -> int:
        return int(sum(mask.sum() for mask in self.masks.values()))

    @property
    def sparsity(self) -> float:
        """Fraction of parameters pruned (0 = dense, 1 = everything pruned)."""
        total = self.total_elements
        if total == 0:
            return 0.0
        return 1.0 - self.kept_elements / total

    @property
    def density(self) -> float:
        """Fraction of parameters kept."""
        return 1.0 - self.sparsity

    # ------------------------------------------------------------------ #
    # Application
    # ------------------------------------------------------------------ #
    def apply_to_weights(self, model: Module) -> None:
        """Zero out pruned weight entries in place."""
        for name, param in model.named_parameters():
            mask = self.masks.get(name)
            if mask is None:
                continue
            if mask.shape != param.data.shape:
                raise ValueError(
                    f"mask shape {mask.shape} does not match parameter {name!r} shape {param.data.shape}"
                )
            param.data = param.data * mask

    # ------------------------------------------------------------------ #
    # Construction / serialisation
    # ------------------------------------------------------------------ #
    @classmethod
    def dense(cls, model: Module) -> "PruningMask":
        """All-keep mask matching a model's parameters."""
        return cls({name: np.ones(param.shape, dtype=bool) for name, param in model.named_parameters()})

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PruningMask(layers={len(self.masks)}, sparsity={self.sparsity:.3f})"
