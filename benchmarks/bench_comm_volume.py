"""Communication volume and collective cost per method (measured, no training).

Supports §IV.C.2's discussion ("PacTrain, being compatible with all-reduce,
ensures communication cost scales proportionally to the pruning ratio", and
TopK-0.1 "causing network congestion" through its all-gather exchange): for a
fixed gradient size this benchmark reports, per method, the bytes each worker
puts on the wire for one synchronisation and the modeled collective time at
each paper bandwidth.  The byte counts come from the process-group event log,
where the collective layer records each operation from the encoded
``WirePayload.nbytes`` — they are measured off the wire representation, not
asserted by the compressors — and ``repro.simulation.pricing`` prices the
logged events under each bandwidth's network model.  Because no training is involved this also serves
as a fast micro-benchmark of the compressor implementations themselves.

Beyond the paper's named methods, a *composed* codec pipeline
(``topk0.01+terngrad``) demonstrates that stage compositions flow through the
same driver and accounting, and ``ef+topk0.01`` shows byte-for-byte parity
with plain top-k (the error-feedback residual never touches the network).
"""

from __future__ import annotations

import numpy as np

from repro.comm import NetworkModel, ProcessGroup
from repro.compression import build_compressor
from repro.ddp.bucket import Bucket, BucketSlice, GradBucket
from repro.obs.export import format_table
from repro.pactrain import PacTrainCompressor
from repro.simulation import pricing

WORLD_SIZE = 8
NUMEL = 200_000          # gradient elements per synchronisation
PRUNING_DENSITY = 0.5    # fraction of non-zero gradient coordinates under PacTrain

METHODS = (
    "allreduce",
    "fp16",
    "topk-0.1",
    "topk-0.01",
    "terngrad",
    "dgc-0.01",
    "pactrain",
    "pactrain-terngrad",
    "topk0.01+terngrad",
    "ef+topk0.01",
)

#: Bytes per worker for one steady-state synchronisation, per method, pinned
#: exactly: the seam from bucket matrix to collective must not move a byte.
EXPECTED_BYTES = {
    "allreduce": 1400000.0,
    "fp16": 700000.0,
    "topk-0.1": 1120000.0,
    "topk-0.01": 112000.0,
    "terngrad": 87507.0,
    "dgc-0.01": 112000.0,
    "pactrain": 702436.0,
    "pactrain-terngrad": 43909.25,
    "topk0.01+terngrad": 59507.0,
    "ef+topk0.01": 112000.0,
}


def _bucket(rng: np.random.Generator, mask: np.ndarray) -> GradBucket:
    layout = Bucket(index=0, slices=[BucketSlice("w", 0, NUMEL, (NUMEL,))])
    rows = [rng.standard_normal(NUMEL) * mask for _ in range(WORLD_SIZE)]
    return GradBucket(layout, np.stack(rows))


def run_volume_analysis() -> dict:
    rng = np.random.default_rng(0)
    # One fixed pruning mask, shared across iterations — what GSE guarantees.
    pruned_mask = rng.random(NUMEL) < PRUNING_DENSITY
    dense_mask = np.ones(NUMEL, dtype=bool)
    report = {}
    for name in METHODS:
        compressor = build_compressor(name)
        sparse = isinstance(compressor, PacTrainCompressor)
        mask = pruned_mask if sparse else dense_mask
        if sparse:
            # Let the Mask Tracker reach stability before measuring the steady state.
            warm_group = ProcessGroup(WORLD_SIZE)
            for _ in range(compressor.tracker.stability_threshold + 1):
                compressor.aggregate(_bucket(rng, mask), warm_group)

        groups = {}
        for setting in ("100Mbps", "500Mbps", "1Gbps"):
            group = ProcessGroup(WORLD_SIZE)
            compressor.aggregate(_bucket(rng, mask), group)
            groups[setting] = group
        report[name] = {
            "bytes": float(sum(event.bytes_per_worker for event in groups["1Gbps"].events)),
            **{
                f"time_{setting}": pricing.comm_time(
                    NetworkModel.from_paper_setting(WORLD_SIZE, setting), group.events
                )
                for setting, group in groups.items()
            },
            "allreduce_compatible": compressor.allreduce_compatible,
        }
    return report


def bench_comm_volume_per_method(benchmark):
    report = benchmark.pedantic(run_volume_analysis, rounds=1, iterations=1)

    baseline_bytes = report["allreduce"]["bytes"]
    rows = []
    for name in METHODS:
        entry = report[name]
        rows.append(
            (
                name,
                "allreduce" if entry["allreduce_compatible"] else "allgather",
                f"{entry['bytes'] / 1e6:.3f}",
                f"{baseline_bytes / entry['bytes']:.1f}x" if entry["bytes"] else "inf",
                f"{entry['time_100Mbps'] * 1e3:.1f}",
                f"{entry['time_500Mbps'] * 1e3:.1f}",
                f"{entry['time_1Gbps'] * 1e3:.1f}",
            )
        )
    print(
        f"\n=== Per-sync communication cost ({NUMEL} gradient elements, {WORLD_SIZE} workers, "
        f"PacTrain density {PRUNING_DENSITY}) ==="
    )
    print(format_table(
        ("method", "collective", "MB/worker", "reduction", "ms@100Mbps", "ms@500Mbps", "ms@1Gbps"),
        rows,
    ))
    benchmark.extra_info.update(
        {f"{name}/mb_per_worker": round(entry["bytes"] / 1e6, 4) for name, entry in report.items()}
    )

    assert {name: entry["bytes"] for name, entry in report.items()} == EXPECTED_BYTES

    # Steady-state PacTrain must beat the fp32 baseline and TopK-0.1 on the wire.
    # At pruning density 0.5 the un-quantised variant sends ~2 bytes/element,
    # i.e. on par with fp16 (but losslessly); with ternary quantisation it is
    # far below fp16.
    assert report["pactrain"]["bytes"] < report["allreduce"]["bytes"]
    assert report["pactrain"]["bytes"] < report["fp16"]["bytes"] * 1.05
    assert report["pactrain"]["bytes"] < report["topk-0.1"]["bytes"]
    assert report["pactrain-terngrad"]["bytes"] < report["fp16"]["bytes"]
    assert report["pactrain-terngrad"]["bytes"] < report["pactrain"]["bytes"]
    # TopK-0.1's all-gather exchange costs more time at 100 Mbps than PacTrain's
    # compact all-reduce — the congestion effect called out in §IV.C.1.
    assert report["pactrain"]["time_100Mbps"] < report["topk-0.1"]["time_100Mbps"]
    # Composed pipeline: ternarising the top-k values shrinks the per-element
    # value cost from 4 to 0.25 bytes (indices still travel).
    assert report["topk0.01+terngrad"]["bytes"] < report["topk-0.01"]["bytes"]
    # Error feedback changes convergence, never wire bytes.
    assert report["ef+topk0.01"]["bytes"] == report["topk-0.01"]["bytes"]
