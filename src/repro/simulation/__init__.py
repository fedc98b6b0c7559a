"""End-to-end training-time simulation.

The paper's headline metric is Time-To-Accuracy (TTA) measured on a physical
testbed.  Here, wall-clock time is replaced by a modeled timeline driven by a
discrete-event engine: per-rank backward completion times and per-bucket
collective costs feed an event heap, and each iteration's time is the
schedule's critical path —

    iteration time = max over ranks of (compute, per-bucket collectives
                     overlapped with backward, straggler waits)

which degenerates to the seed ``compute + comm`` sum when overlap is disabled.
Accuracy, on the other hand, is *real*: models are actually trained on
per-rank data shards, so convergence differences between compression schemes
(the other half of TTA) emerge from the optimisation itself rather than being
assumed.

Modules:

* :mod:`repro.simulation.compute`  — analytic FLOP estimates, device specs and
  per-bucket backward completion fractions;
* :mod:`repro.simulation.engine`   — event heap, link occupancy and the
  per-iteration schedule (compute/comm/overlap/straggler breakdown);
* :mod:`repro.simulation.cluster`  — cluster description (workers, devices,
  stragglers, network, overlap/hierarchical toggles);
* :mod:`repro.simulation.faults`   — declarative fault plans (crash / re-join /
  link windows / churn) on the simulated clock;
* :mod:`repro.simulation.timeline` — accumulation of compute/communication/
  overlap time and per-iteration traces;
* :mod:`repro.simulation.regimes`  — training-regime schedules (``sync``,
  ``localsgd:H[:delta]``, ``ps[:S]``), local-SGD replicas and checkpoints;
* :mod:`repro.simulation.spec`     — the typed specs: ``MethodSpec``,
  ``ExperimentConfig``, ``ExperimentResult`` and the paper's methods;
* :mod:`repro.simulation.experiment` — the configuration-driven driver every
  benchmark uses: one stepped training loop, two regime steps, the PS loop.
"""

from repro.simulation.compute import (
    DeviceSpec,
    ComputeModel,
    estimate_model_flops,
    estimate_parameter_flops,
)
from repro.simulation.engine import (
    BucketTrace,
    EventHeap,
    IterationTrace,
    LinkChannel,
    SimulationEngine,
)
from repro.simulation.cluster import ClusterSpec
from repro.simulation.timeline import TrainingTimeline, EpochRecord
from repro.simulation.spec import (
    MethodSpec,
    ExperimentConfig,
    ExperimentResult,
    PAPER_METHODS,
)
from repro.simulation.experiment import (
    run_experiment,
    train_distributed,
    evaluate_accuracy,
)

__all__ = [
    "DeviceSpec",
    "ComputeModel",
    "estimate_model_flops",
    "estimate_parameter_flops",
    "BucketTrace",
    "EventHeap",
    "IterationTrace",
    "LinkChannel",
    "SimulationEngine",
    "ClusterSpec",
    "TrainingTimeline",
    "EpochRecord",
    "MethodSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "train_distributed",
    "evaluate_accuracy",
    "PAPER_METHODS",
]
