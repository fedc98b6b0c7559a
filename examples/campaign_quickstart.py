"""Campaign quickstart: declare a sweep, run it in parallel, query the store.

The :mod:`repro.campaign` subsystem turns parameter studies from nested loops
into data.  This example declares a miniature version of the paper's Fig. 3
grid (one model, two bandwidths, three methods, two seeds), executes it with
a process pool, and then answers questions from the persistent result store —
including the paper's relative-TTA presentation.

Run it twice to see the content-addressed cache at work: the second run
executes zero training runs.

    python examples/campaign_quickstart.py [--jobs 4]
"""

from __future__ import annotations

import argparse

from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.obs.export import format_table

STORE_PATH = "campaign_results/quickstart.jsonl"


def quickstart_campaign() -> CampaignSpec:
    return CampaignSpec(
        name="quickstart",
        base={
            "model": "resnet18",
            "epochs": 3,
            "batch_size": 16,
            "dataset_samples": 128,
            "max_iterations_per_epoch": 2,
            "target_accuracy": 0.7,
            "world_size": 4,
        },
        # Grid axes: the cartesian product, 2 x 3 x 2 = 12 cells.
        axes={
            "bandwidth": ["100Mbps", "1Gbps"],
            "method": ["all-reduce", "fp16", "pactrain"],
            "seed": [0, 1],
        },
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4, help="worker processes")
    args = parser.parse_args()

    spec = quickstart_campaign()
    store = ResultStore(STORE_PATH)
    print(f"campaign {spec.name!r}: {len(spec.expand())} cells -> {STORE_PATH}")

    report = run_campaign(
        spec,
        store=store,
        jobs=args.jobs,
        progress=lambda p: print(
            f"  [{p.done:2d}/{p.total}] {p.outcome.status:<6} {p.outcome.cell.label}"
            + (f"  [{p.elapsed_s:.1f}s]" if not p.cache_hit else "")
        ),
    )
    report.raise_failures()
    print(report.summary())

    # Query 1: simulated training time per (method, bandwidth), averaged
    # over the seed axis.
    header, rows = store.pivot("method", "bandwidth_mbps", value="simulated_time")
    print("\nSimulated time (s), mean over seeds:")
    print(format_table(header, rows))

    # Query 2: the paper's headline presentation — TTA relative to all-reduce.
    print("\nRelative TTA (method / all-reduce; < 1 is faster):")
    relative = store.relative_to_baseline("all-reduce", value="tta_or_total")
    rel_rows = [
        (f"{model} @ {mbps:g} Mbps", name, f"{ratio:.3f}")
        for (model, mbps), by_method in sorted(relative.items(), key=str)
        for name, ratio in by_method.items()
        if name != "all-reduce"
    ]
    print(format_table(("workload", "method", "relative TTA"), rel_rows))

    print("\nRun me again: every cell is now a cache hit (ran=0).")


if __name__ == "__main__":
    main()
