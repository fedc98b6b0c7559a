"""Configuration for the PacTrain worker algorithm (Algorithm 1)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PacTrainConfig:
    """Hyper-parameters of the PacTrain training procedure.

    Attributes
    ----------
    pruning_ratio:
        Fraction of prunable weights removed before distributed training
        starts.  The paper uses 0.5 by default and sweeps 0.0–0.99 in Fig. 6.
    pruning_method:
        ``"magnitude"`` (weight-magnitude criterion) or ``"grasp"`` (Eq. (4)
        gradient-flow criterion).
    stability_threshold:
        Consecutive unchanged iterations before the Mask Tracker declares a
        bucket's sparsity pattern stable.
    min_sparsity:
        Minimum gradient sparsity required before compact synchronisation is
        worthwhile (denser buckets keep using full all-reduce).
    quantize:
        Apply TernGrad quantisation on top of the compacted gradients (§III.D).
    gse_every_iteration:
        Re-apply Gradient Sparsity Enforcement after every backward pass; the
        paper's Eq. (2).  Disabling this is only useful for ablations.
    warmup_iterations:
        Number of initial iterations that always use full synchronisation,
        regardless of mask stability (lets the optimiser settle after pruning).
    """

    pruning_ratio: float = 0.5
    pruning_method: str = "magnitude"
    stability_threshold: int = 3
    min_sparsity: float = 0.05
    quantize: bool = False
    gse_every_iteration: bool = True
    warmup_iterations: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.pruning_ratio < 1.0:
            raise ValueError("pruning_ratio must be in [0, 1)")
        if self.pruning_method not in ("magnitude", "grasp"):
            raise ValueError("pruning_method must be 'magnitude' or 'grasp'")
        if self.stability_threshold < 1:
            raise ValueError("stability_threshold must be >= 1")
        if not 0.0 <= self.min_sparsity < 1.0:
            raise ValueError("min_sparsity must be in [0, 1)")
        if self.warmup_iterations < 0:
            raise ValueError("warmup_iterations must be >= 0")
