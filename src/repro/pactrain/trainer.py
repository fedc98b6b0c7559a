"""PacTrain worker algorithm (Algorithm 1) as a ready-to-run trainer.

:class:`PacTrainTrainer` is the user-facing entry point of the reproduction:
give it a model name (or instance), a dataset and a cluster description and it
executes Algorithm 1 — prune the (pre-trained) model, apply Gradient Sparsity
Enforcement every iteration, track the sparsity pattern of the flattened DDP
buckets, and synchronise either compactly (stable mask) or fully (unstable
mask) — while accounting simulated time so Time-To-Accuracy can be reported.

The trainer is a thin convenience layer over
:func:`repro.simulation.experiment.run_experiment`; benchmarks that sweep many
methods use the experiment driver directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.pactrain.config import PacTrainConfig
from repro.simulation.cluster import ClusterSpec
from repro.simulation.experiment import run_experiment
from repro.simulation.spec import ExperimentConfig, ExperimentResult, MethodSpec


@dataclass
class PacTrainTrainer:
    """Run PacTrain end-to-end on a named workload.

    Example
    -------
    >>> from repro.pactrain import PacTrainTrainer, PacTrainConfig
    >>> from repro.simulation import ClusterSpec
    >>> trainer = PacTrainTrainer(
    ...     model="resnet18",
    ...     dataset="cifar10",
    ...     cluster=ClusterSpec(world_size=4, bandwidth="100Mbps"),
    ...     config=PacTrainConfig(pruning_ratio=0.5),
    ...     epochs=3,
    ... )
    >>> result = trainer.run()
    >>> result.final_accuracy > 0.1
    True
    """

    model: str = "resnet18"
    dataset: str = "cifar10"
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    config: PacTrainConfig = field(default_factory=PacTrainConfig)
    epochs: int = 10
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    target_accuracy: Optional[float] = None
    dataset_samples: int = 512
    image_size: int = 8
    seed: int = 0

    # ------------------------------------------------------------------ #
    def method_spec(self) -> MethodSpec:
        """The :class:`MethodSpec` equivalent of this trainer's configuration."""
        return MethodSpec(
            name="pactrain-terngrad" if self.config.quantize else "pactrain",
            compressor="pactrain",
            pruning_ratio=self.config.pruning_ratio,
            pruning_method=self.config.pruning_method,
            gse=self.config.gse_every_iteration,
            quantize=self.config.quantize,
            stability_threshold=self.config.stability_threshold,
            min_sparsity=self.config.min_sparsity,
            warmup_iterations=self.config.warmup_iterations,
        )

    def experiment_config(self) -> ExperimentConfig:
        return ExperimentConfig(
            model=self.model,
            dataset=self.dataset,
            cluster=self.cluster,
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            momentum=self.momentum,
            target_accuracy=self.target_accuracy,
            dataset_samples=self.dataset_samples,
            image_size=self.image_size,
            seed=self.seed,
        )

    # ------------------------------------------------------------------ #
    def run(self) -> ExperimentResult:
        """Execute Algorithm 1 and return the experiment result."""
        return run_experiment(self.experiment_config(), self.method_spec())

    def run_baseline(self, compressor: str = "allreduce") -> ExperimentResult:
        """Train the same workload without pruning using a baseline compressor.

        Useful for quick speedup comparisons::

            pac = trainer.run()
            base = trainer.run_baseline()
            speedup = base.tta_or_total() / pac.tta_or_total()
        """
        baseline = MethodSpec(name=compressor, compressor=compressor)
        return run_experiment(self.experiment_config(), baseline)

    def summary(self, result: ExperimentResult) -> Dict[str, float]:
        """Compact numeric summary of a finished run (for printing/logging)."""
        return {
            "final_accuracy": result.final_accuracy,
            "best_accuracy": result.best_accuracy,
            "simulated_time_s": result.simulated_time,
            "comm_time_s": result.comm_time,
            "compute_time_s": result.compute_time,
            "compression_ratio": result.compression_ratio,
            "weight_sparsity": result.weight_sparsity,
            "tta_s": result.tta if result.tta is not None else float("nan"),
        }
