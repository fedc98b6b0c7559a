"""Local-SGD study: trading synchronisation frequency against bandwidth.

Local SGD takes H optimizer steps per rank between averaging rounds, cutting
collective traffic by ~H at the cost of replica divergence between rounds.
Whether that trade wins depends on the network: under a constrained
bottleneck link the communication saved dominates, on a fast link synchronous
training is already cheap.  This example sweeps the sync period H (1 = fully
synchronous) against bottleneck bandwidth on the same dense-gradient workload
and reports simulated time-to-accuracy per cell; the winner per bandwidth
column makes the crossover visible.

``localsgd:1`` routes through the synchronous training loop (averaging every
step *is* synchronous training), so the H=1 row doubles as the exact
baseline.

Run with:  python examples/localsgd_study.py [--quick] [--delta]
           [--store study.jsonl] [--jobs 4]
"""

from __future__ import annotations

import argparse

from repro.campaign import CampaignSpec, ResultStore, run_campaign

BANDWIDTHS = ("100Mbps", "1Gbps")
PERIODS = (1, 2, 4, 8)


def study_campaign(quick: bool = False, delta: bool = False) -> CampaignSpec:
    suffix = ":delta" if delta else ""
    schedules = ["sync"] + [f"localsgd:{h}{suffix}" for h in PERIODS if h > 1]
    base = {
        "model": "mlp",
        "dataset": "cifar10",
        "method": "topk-0.01" if delta else "all-reduce",
        "world_size": 4,
        "batch_size": 8,
        "image_size": 8,
        "pretrain_iterations": 2,
        "target_accuracy": 0.5,
        "seed": 0,
    }
    if quick:
        base.update(epochs=1, dataset_samples=384, max_iterations_per_epoch=8)
    else:
        base.update(epochs=6, dataset_samples=192, max_iterations_per_epoch=6)
    return CampaignSpec(
        name="localsgd-study",
        base=base,
        axes={
            "bandwidth": list(BANDWIDTHS[:1] if quick else BANDWIDTHS),
            "sync_schedule": schedules,
        },
    )


def run_study(
    quick: bool = False,
    delta: bool = False,
    store_path: str | None = None,
    jobs: int = 1,
) -> None:
    mode = "delta-compressed (top-k 1%)" if delta else "dense"
    print(
        f"Workload: mlp on synthetic CIFAR-10, 4 workers, {mode} averaging, "
        f"target accuracy 0.5\n"
    )
    store = ResultStore(store_path) if store_path else None
    report = run_campaign(study_campaign(quick, delta), store=store, jobs=jobs)
    report.raise_failures()
    print(report.summary() + "\n")

    by_bandwidth: dict[float, list] = {}
    for result in report.results():
        by_bandwidth.setdefault(result.bandwidth_mbps, []).append(result)

    for mbps in sorted(by_bandwidth):
        results = by_bandwidth[mbps]
        print(f"--- bottleneck bandwidth: {mbps:g} Mbps ---")
        print(
            f"{'schedule':<18} {'final acc':>9} {'TTA (s)':>10} {'comm (s)':>9} "
            f"{'sync rounds':>11} {'local steps':>11}"
        )
        best = min(results, key=lambda r: r.tta_or_total())
        for result in results:
            schedule = result.method.partition("@")[2] or "sync"
            marker = "  <- best" if result is best else ""
            print(
                f"{schedule:<18} {result.final_accuracy:>9.3f} "
                f"{result.tta_or_total():>10.4f} {result.comm_time:>9.4f} "
                f"{result.sync_rounds:>11d} {result.local_steps:>11d}{marker}"
            )
        print()

    if not quick:
        constrained = by_bandwidth[min(by_bandwidth)]
        sync_tta = next(
            r.tta_or_total() for r in constrained if "@" not in r.method
        )
        fast_periods = [
            r
            for r in constrained
            if "@localsgd:" in r.method
            and int(r.method.split("@localsgd:")[1].split(":")[0]) >= 4
        ]
        best_fast = min(r.tta_or_total() for r in fast_periods)
        speedup = sync_tta / best_fast
        print(
            f"At {min(by_bandwidth):g} Mbps, H>=4 local SGD reaches the target "
            f"{speedup:.2f}x faster than synchronous training "
            f"({best_fast:.4f}s vs {sync_tta:.4f}s simulated)."
        )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for CI smoke (one bandwidth, 1 epoch)")
    parser.add_argument("--delta", action="store_true",
                        help="compress sync-round deltas through top-k 1% instead "
                             "of dense averaging")
    parser.add_argument("--store", default=None, help="optional result store")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    args = parser.parse_args()
    run_study(args.quick, args.delta, store_path=args.store, jobs=args.jobs)
