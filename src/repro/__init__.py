"""PacTrain reproduction.

A pure-Python (numpy) reproduction of *PacTrain: Pruning and Adaptive Sparse
Gradient Compression for Efficient Collective Communication in Distributed
Deep Learning* (DAC 2025), including every substrate the paper depends on:
an autograd engine and model zoo, a DDP simulator with gradient buckets and
communication hooks, an analytic collective-communication cost model, the
baseline gradient compressors, pruning + Gradient Sparsity Enforcement, and
the PacTrain Mask Tracker / adaptive sparse compressor themselves.

Quickstart
----------
>>> from repro.pactrain import PacTrainTrainer, PacTrainConfig
>>> from repro.simulation import ClusterSpec
>>> trainer = PacTrainTrainer(
...     model="resnet18",
...     dataset="cifar10",
...     cluster=ClusterSpec(world_size=4, bandwidth="100Mbps"),
...     config=PacTrainConfig(pruning_ratio=0.5),
...     epochs=2,
... )
>>> result = trainer.run()          # doctest: +SKIP
>>> print(result.final_accuracy)    # doctest: +SKIP

Parameter studies over many (model, bandwidth, method, seed) cells run through
the :mod:`repro.campaign` subsystem (``python -m repro sweep``); see the
README for the benchmark-to-figure map.
"""

__version__ = "1.0.0"

__all__ = [
    "tensorlib",
    "nn",
    "data",
    "comm",
    "ddp",
    "compression",
    "pruning",
    "pactrain",
    "simulation",
    "metrics",
    "campaign",
    "obs",
]
