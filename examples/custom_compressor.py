"""Extending the framework: write a custom codec stage and plug it into DDP.

This example shows the lower-level API the PacTrain implementation itself is
built on:

* implement a custom :class:`repro.compression.Codec` stage (here: a toy
  "sign-SGD with shared scale" codec) — ``prepare`` agrees on the scale
  across ranks, ``encode`` emits a 1-bit-per-element wire payload, ``decode``
  multiplies by the shared scale to return to gradient units;
* bind it to the shared encode/reduce/decode driver with
  :class:`repro.compression.CodecCompressor` and register it under a name so
  experiment configurations can refer to it (``register_compressor`` is the
  extension point for what a spec string cannot say; the built-in names are
  just a table of spec strings);
* hand the compressor to the DDP simulator as its communication hook — the
  hook *is* ``compressor.aggregate(bucket, group, iteration)``, called once
  per bucket — drive the synchronous step the experiment driver runs
  (``ddp.train_step``: per-rank forward/backward, Gradient Sparsity
  Enforcement, bucketed gradient exchange) directly, and inspect the Mask
  Tracker on the staged flat bucket gradients, exactly the view a PyTorch DDP
  comm hook would see.

Note there is no byte bookkeeping anywhere in the custom code: the collective
layer reads the wire size straight off the payload (``payload.nbytes``), and
``repro.simulation.pricing`` turns the logged bytes into modeled seconds.

Run with:  python examples/custom_compressor.py
"""

from __future__ import annotations

import numpy as np

from repro.compression import (
    Codec,
    CodecCompressor,
    DensePayload,
    build_compressor,
    register_compressor,
)
from repro.data import DataLoader, DistributedSampler, synthetic_cifar10
from repro.ddp import DistributedDataParallel
from repro.nn import SGD
from repro.nn.models import build_model
from repro.pactrain import MaskTracker
from repro.pruning import magnitude_prune
from repro.simulation import ClusterSpec, pricing
from repro.tensorlib import functional as F

WORLD_SIZE = 4
SIGN_BYTES = 1.0 / 8.0  # one bit per element on the wire


class SignCodec(Codec):
    """Sign compression: transmit sign(grad) plus one shared scale per bucket."""

    name = "sign"
    allreduce_compatible = True  # signs are element-wise summable

    def __init__(self) -> None:
        self._scale = 1.0

    def prepare(self, inputs, ctx):
        # Shared scale: the mean absolute gradient across ranks.  The
        # one-scalar all-reduce is issued for its modeled cost; the shared
        # value is computed locally (the simulation holds all ranks in-process).
        means = [float(np.mean(np.abs(p.values))) for p in inputs]
        if ctx.group is not None:
            ctx.group.all_reduce([DensePayload(np.array([m])) for m in means], average=True)
        self._scale = float(np.mean(means))

    def encode(self, payload, ctx, rank=0):
        # One bit per element on the wire: the payload *is* the byte account.
        return DensePayload(np.sign(payload.values), element_bytes=SIGN_BYTES)

    def decode(self, payload):
        return DensePayload(np.asarray(payload.values, dtype=np.float64) * self._scale)


def main() -> None:
    register_compressor("sign", lambda: CodecCompressor([SignCodec()], name="sign"))

    dataset = synthetic_cifar10(num_samples=256, image_size=8, seed=0)
    model = build_model("vgg19", num_classes=10, seed=0)
    mask = magnitude_prune(model, 0.5)

    # The wrapper moves bytes; the 100 Mbps cluster's cost model prices them below.
    network = ClusterSpec(world_size=WORLD_SIZE, bandwidth="100Mbps").cost_model_for()
    ddp = DistributedDataParallel(
        model, world_size=WORLD_SIZE, comm_hook=build_compressor("sign")
    )
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    tracker = MaskTracker(stability_threshold=2)

    loaders = [
        DataLoader(dataset, batch_size=16, sampler=DistributedSampler(len(dataset), WORLD_SIZE, rank))
        for rank in range(WORLD_SIZE)
    ]

    print(f"Training VGG19-mini with a custom sign codec on {WORLD_SIZE} workers\n")
    for epoch in range(2):
        for loader in loaders:
            loader.set_epoch(epoch)
        for batches in zip(*loaders):
            # One synchronous step: backward on every rank, GSE with the
            # pruning mask, one aggregate() per bucket, gradients written back.
            # The step reports each bucket's collective events (DDP drains the
            # group's per-step log into them), which pricing turns into seconds.
            step = ddp.train_step(batches, F.cross_entropy, gse_mask=mask)
            optimizer.step()
            mask.apply_to_weights(model)
            ddp.iteration += 1

            # Peek at what the comm hook saw: the flat, nameless per-rank rows
            # of the first bucket, still staged in the gradient arena.
            bucket = ddp.buckets[0]
            state = tracker.update_from_rank_gradients(
                bucket.index, list(ddp.arena.matrix(bucket.index))
            )
            print(
                f"epoch {epoch} loss={step.loss:.3f} "
                f"bucket density={state.density:.2f} stable={state.stable} "
                f"comm={pricing.comm_time(network, step.events) * 1e3:.1f} ms"
            )

    compressor = ddp.compressor  # the CodecCompressor instance passed as comm_hook
    print(f"\nSign codec wire ratio: {compressor.stats.compression_ratio:.1f}x "
          f"(raw {compressor.stats.raw_bytes / 1e6:.2f} MB -> {compressor.stats.wire_bytes / 1e6:.3f} MB)")


if __name__ == "__main__":
    main()
