"""Error-feedback study: does EF rescue top-k 1 % selection?

One campaign sweeps the ``error_feedback`` method-field axis over the paper's
top-k 1 % baseline at two bottleneck bandwidths.  For every bandwidth the
table compares the no-EF and EF variants' final accuracy and wire volume: EF
retransmits the dropped gradient mass once its accumulated error grows, so it
changes *convergence*, never bytes on the wire (the residual rides inside
each rank, not on the network).  Every cell trains with the reproduction's
SGD (learning rate 0.05, momentum 0.9), the one every figure shares.

    python examples/error_feedback_study.py [--quick] [--store ef.jsonl] [--jobs 4]

``--quick`` shrinks the workload to a seconds-scale smoke run (what CI
executes); the default settings train long enough for the EF/no-EF accuracy
gap to be visible.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.campaign import CampaignSpec, ResultStore, run_campaign

#: The compressor under study.  The ``error_feedback`` axis is tri-state on
#: MethodSpec; sweeping [false, true] forces every form of compensation
#: off/on uniformly — the ``false`` arm strips even the stage-internal
#: residuals top-k carries in its paper form, so the no-EF arm is genuinely
#: uncompensated.
COMPRESSOR = "topk0.01"
BANDWIDTHS = ("100Mbps", "1Gbps")


def study_campaign(quick: bool = False) -> CampaignSpec:
    base = {
        "model": "resnet18",
        "dataset": "cifar10",
        "world_size": 4,
        "batch_size": 8,
        "dataset_samples": 32 if quick else 128,
        "epochs": 1 if quick else 8,
        "max_iterations_per_epoch": 2 if quick else None,
        "pretrain_iterations": 0 if quick else 3,
        "noise_std": 0.3,
        "seed": 0,
    }
    if base["max_iterations_per_epoch"] is None:
        del base["max_iterations_per_epoch"]
    return CampaignSpec(
        name="error-feedback-study",
        base=base,
        axes={
            "bandwidth": list(BANDWIDTHS if not quick else BANDWIDTHS[:1]),
            "method": [COMPRESSOR],
            "error_feedback": [False, True],
        },
    )


def run_study(quick: bool = False, store_path: Optional[str] = None, jobs: int = 1) -> None:
    spec = study_campaign(quick=quick)
    print(
        f"Error-feedback study: {len(spec)} cells "
        f"({'quick smoke' if quick else 'full'} workload)\n"
    )
    store = ResultStore(store_path) if store_path else None
    report = run_campaign(spec, store=store, jobs=jobs)
    report.raise_failures()
    print(report.summary() + "\n")

    by_cell = {
        (outcome.result.bandwidth_mbps, outcome.cell.method.error_feedback): outcome.result
        for outcome in report.outcomes
        if outcome.result is not None
    }
    bandwidths = sorted({key[0] for key in by_cell})
    print(f"{'compressor':<16} {'Mbps':>6} {'no-EF acc':>10} {'EF acc':>8} "
          f"{'MB/worker':>10} {'EF gain':>8}")
    for mbps in bandwidths:
        raw = by_cell.get((mbps, False))
        ef = by_cell.get((mbps, True))
        if raw is None or ef is None:
            continue
        gain = ef.final_accuracy - raw.final_accuracy
        print(
            f"{COMPRESSOR:<16} {mbps:>6g} {raw.final_accuracy:>10.3f} "
            f"{ef.final_accuracy:>8.3f} "
            f"{ef.comm_bytes_per_worker / 1e6:>10.2f} {gain:>+8.3f}"
        )
    print(
        "\nEF changes convergence, not bytes: each bandwidth reports one wire "
        "volume because the residual never touches the network."
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="seconds-scale smoke workload (used by CI)")
    parser.add_argument("--store", default=None, help="optional result store (enables caching)")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    args = parser.parse_args()
    run_study(quick=args.quick, store_path=args.store, jobs=args.jobs)
