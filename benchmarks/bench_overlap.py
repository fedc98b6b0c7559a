"""Per-bucket compute/comm overlap (event-driven engine).

The seed time model serialised all compute before all communication, so the
mechanism DDP's reverse-order bucketing exists for — overlapping late-bucket
collectives with early-layer backward compute — was invisible.  This benchmark
quantifies what the event-driven engine recovers: for each paper method it
runs the same training twice (overlap off / on) on a multi-bucket layout and
reports the simulated-time saving and the fraction of communication hidden
behind backward compute.

Two invariants are asserted (the PR's acceptance criteria): with overlap off,
``simulated_time == compute + comm`` exactly; with overlap on, iteration time
is strictly below ``compute + comm`` whenever communication is nonzero.
"""

from __future__ import annotations

from repro.obs.export import format_table
from repro.simulation import ClusterSpec, ExperimentConfig, PAPER_METHODS, run_experiment

MODEL = "resnet18"
BANDWIDTH = "100Mbps"
WORLD_SIZE = 8
#: Small bucket cap so the mini models span several buckets (the 25 MiB
#: PyTorch default would keep them in one bucket, where overlap is impossible).
BUCKET_CAP_BYTES = 8 * 1024

METHOD_ORDER = ("all-reduce", "fp16", "topk-0.1", "topk-0.01", "pactrain")


def _config(cluster: ClusterSpec) -> ExperimentConfig:
    """Two epochs of the figure campaigns' workload on ``cluster``."""
    return ExperimentConfig(
        model=MODEL,
        cluster=cluster,
        epochs=2,
        batch_size=16,
        dataset_samples=256,
        max_iterations_per_epoch=2,
        noise_std=0.8,
        pretrain_iterations=15,
        bucket_cap_bytes=BUCKET_CAP_BYTES,
    )


def run_overlap_study() -> dict:
    results = {}
    for name in METHOD_ORDER:
        method = PAPER_METHODS[name]
        serial = run_experiment(
            _config(ClusterSpec(world_size=WORLD_SIZE, bandwidth=BANDWIDTH)), method
        )
        overlapped = run_experiment(
            _config(ClusterSpec(world_size=WORLD_SIZE, bandwidth=BANDWIDTH, overlap=True)),
            method,
        )
        results[name] = {"serial": serial, "overlap": overlapped}
    return results


def bench_overlap_speedup(benchmark):
    results = benchmark.pedantic(run_overlap_study, rounds=1, iterations=1)

    rows = []
    for name, pair in results.items():
        serial, overlapped = pair["serial"], pair["overlap"]
        rows.append(
            (
                name,
                f"{serial.simulated_time:.3f}",
                f"{overlapped.simulated_time:.3f}",
                f"{serial.simulated_time / overlapped.simulated_time:.2f}x"
                if overlapped.simulated_time
                else "inf",
                f"{overlapped.overlap_fraction * 100:.1f}%",
            )
        )
    print(
        f"\n=== Per-bucket overlap on {MODEL} @ {BANDWIDTH}, {WORLD_SIZE} workers "
        f"(bucket cap {BUCKET_CAP_BYTES // 1024} KiB) ==="
    )
    print(format_table(("method", "serial s", "overlap s", "speedup", "comm hidden"), rows))

    for name in METHOD_ORDER:
        serial, overlapped = results[name]["serial"], results[name]["overlap"]
        # Acceptance criteria: the serial schedule reproduces the seed model
        # exactly; the overlapped schedule strictly beats compute + comm.
        assert serial.simulated_time == serial.compute_time + serial.comm_time
        assert serial.overlap_fraction == 0.0
        assert overlapped.comm_time > 0
        assert overlapped.simulated_time < overlapped.compute_time + overlapped.comm_time
        assert overlapped.overlap_fraction > 0.0
