"""Quickstart: train a pruned model with PacTrain and compare against DDP all-reduce.

Runs in well under a minute on a laptop CPU.  It reproduces, at mini scale, the
paper's core workflow (Algorithm 1):

1. start from a (briefly pre-trained) model and prune 50 % of its weights;
2. fine-tune with 8 simulated data-parallel workers behind a 100 Mbps bottleneck,
   applying Gradient Sparsity Enforcement every iteration;
3. let the Mask Tracker detect the stable gradient sparsity pattern and switch
   gradient synchronisation to PacTrain's compact, all-reduce-compatible form;
4. compare simulated Time-To-Accuracy against the native all-reduce baseline.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.simulation import PAPER_METHODS, ClusterSpec, ExperimentConfig, run_experiment


def main() -> None:
    cluster = ClusterSpec(world_size=8, bandwidth="100Mbps")
    config = ExperimentConfig(
        model="resnet18",
        dataset="cifar10",
        cluster=cluster,
        epochs=4,
        batch_size=16,
        dataset_samples=256,
        target_accuracy=0.7,
        seed=0,
    )
    # The paper's configuration: prune 0.5, GSE every iteration, ternary
    # quantisation of the compacted gradients, Mask Tracker threshold 3.
    method = PAPER_METHODS["pactrain"]

    print("Cluster:", cluster.describe())
    print("\nRunning PacTrain (prune 0.5 + GSE + adaptive sparse compression)...")
    pactrain = run_experiment(config, method)
    print("\nRunning the native all-reduce baseline on the same workload...")
    baseline = run_experiment(config, PAPER_METHODS["all-reduce"])

    print("\n=== Results (simulated time; accuracy from real training) ===")
    header = f"{'method':<12} {'final acc':>9} {'sim time':>10} {'comm time':>10} {'MB/worker':>10}"
    print(header)
    print("-" * len(header))
    for result in (baseline, pactrain):
        print(
            f"{result.method:<12} {result.final_accuracy:>9.3f} "
            f"{result.simulated_time:>9.2f}s {result.comm_time:>9.2f}s "
            f"{result.comm_bytes_per_worker / 1e6:>10.2f}"
        )

    speedup = baseline.tta_or_total() / pactrain.tta_or_total()
    print(f"\nPacTrain weight sparsity: {pactrain.weight_sparsity:.2f}")
    print(f"Fraction of bucket syncs using the compact path: {pactrain.extra.get('compact_fraction', 0):.2f}")
    print(f"Time-to-accuracy speedup over all-reduce: {speedup:.2f}x")


if __name__ == "__main__":
    main()
