"""Distributed data-parallel training simulator.

This package reproduces the PyTorch DDP abstractions the paper builds on:

* gradients are packed into **buckets** — flat 1-D tensors concatenating
  per-parameter gradients in reverse registration order, with parameter names
  erased (:mod:`repro.ddp.bucket`);
* gradient synchronisation is customisable through a **communication hook**
  that only ever sees the flat bucket.  Here the hook is a
  :class:`repro.compression.CodecCompressor`: its ``aggregate(bucket, group,
  iteration)`` method is the one seam every regime synchronises through
  (``comm_hook=None`` is the identity compressor, a plain fp32 all-reduce);
* :meth:`repro.ddp.DistributedDataParallel.train_step` — the one synchronous
  step — drives per-rank forward/backward passes over sharded data, calls the
  compressor per bucket, and writes the aggregated gradient back into the
  model, so the optimiser step is identical on every rank
  (:mod:`repro.ddp.ddp`).

The deliberately restricted hook interface is what makes the paper's Mask
Tracker necessary: ``aggregate`` cannot map bucket offsets back to named
weights, so sparsity structure must be recovered from the flat gradient itself.
"""

from repro.ddp.arena import GradientArena
from repro.ddp.bucket import Bucket, BucketSlice, GradBucket, build_buckets
from repro.ddp.ddp import DistributedDataParallel, StepResult

__all__ = [
    "Bucket",
    "BucketSlice",
    "GradBucket",
    "GradientArena",
    "build_buckets",
    "DistributedDataParallel",
    "StepResult",
]
