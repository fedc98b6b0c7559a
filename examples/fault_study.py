"""Fault study: rank crash and re-join under the fault-injection engine.

A :class:`~repro.simulation.faults.FaultPlan` attached to the cluster spec
schedules failures on the *simulated* clock: here rank 3 crashes early in the
run, the survivors' WAN link degrades to half bandwidth for a window, and the
rank re-joins later, paying a state-broadcast re-synchronisation cost.  The
experiment driver interprets the plan between iterations — collectives run
over the surviving membership, error-feedback residuals are resized on every
membership change, and the timeline accounts downtime, re-join cost and the
resulting goodput fraction.

The same workload runs healthy first so the fault overhead is visible as a
diff.  With ``--trace PATH`` the run also streams ``fault/*`` instants and
``fault/degraded-world`` spans on the simulated clock as raw events (to
``PATH`` when it ends in ``.jsonl``, to ``PATH.jsonl`` otherwise);
``python -m repro trace convert EVENTS OUT.json`` turns them into a Chrome
trace to load in Perfetto.

Run with:  python examples/fault_study.py [--trace fault_study.jsonl]
"""

from __future__ import annotations

import argparse

from repro import obs
from repro.simulation import (
    ClusterSpec,
    ExperimentConfig,
    PAPER_METHODS,
    run_experiment,
)

WORLD_SIZE = 4

#: The mini-MLP iterates in ~2 ms of simulated time at 100 Mbps, so the whole
#: schedule lives in the first few hundredths of a simulated second: crash at
#: 2 ms, halve the link from 4 ms to 6 ms, re-join at 8 ms.
FAULT_PLAN = "crash:3@0.002,link:0.5@0.004-0.006,rejoin:3@0.008"


def make_config(faults: str | None) -> ExperimentConfig:
    return ExperimentConfig(
        model="mlp",
        dataset="cifar10",
        cluster=ClusterSpec(world_size=WORLD_SIZE, bandwidth="100Mbps", faults=faults),
        epochs=3,
        batch_size=8,
        dataset_samples=48,
        image_size=8,
        pretrain_iterations=2,
        max_iterations_per_epoch=4,
        seed=0,
    )


def run_study(
    method_name: str = "topk-0.1",
    trace_path: str | None = None,
    regime: str | None = None,
) -> None:
    import dataclasses  # noqa: PLC0415

    method = PAPER_METHODS[method_name]
    if regime is not None:
        # Local SGD composes with fault plans (the async parameter server
        # does not — it models a different failure domain and rejects them).
        method = dataclasses.replace(method, sync_schedule=regime)
    print(
        f"Workload: mlp on synthetic CIFAR-10, {WORLD_SIZE} workers @ 100 Mbps, "
        f"method {method_name} (error feedback on, residuals resized on "
        f"membership changes)\n"
    )
    print(f"Fault plan: {FAULT_PLAN}\n")

    healthy = run_experiment(make_config(None), method)

    if trace_path:
        obs.enable(path=trace_path, role="main")
    try:
        faulted = run_experiment(make_config(FAULT_PLAN), method)
    finally:
        if trace_path:
            obs.disable()

    rows = (
        ("simulated time (s)", f"{healthy.simulated_time:.6f}", f"{faulted.simulated_time:.6f}"),
        ("final accuracy", f"{healthy.final_accuracy:.4f}", f"{faulted.final_accuracy:.4f}"),
        ("fault events", healthy.fault_events, faulted.fault_events),
        ("degraded iterations", healthy.degraded_iterations, faulted.degraded_iterations),
        (
            "downtime (rank-s)",
            f"{healthy.downtime_rank_seconds:.6f}",
            f"{faulted.downtime_rank_seconds:.6f}",
        ),
        ("re-join cost (s)", f"{healthy.rejoin_cost_time:.6f}", f"{faulted.rejoin_cost_time:.6f}"),
        ("goodput fraction", f"{healthy.goodput_fraction:.4f}", f"{faulted.goodput_fraction:.4f}"),
    )
    print(f"{'metric':<22} {'healthy':>12} {'crash+rejoin':>14}")
    for name, base, fault in rows:
        print(f"{name:<22} {base!s:>12} {fault!s:>14}")

    overhead = faulted.simulated_time - healthy.simulated_time
    print(
        f"\nThe crash removes rank 3 for 6 ms of simulated time "
        f"({faulted.degraded_iterations} degraded iterations); the re-join pays "
        f"a one-off state broadcast of {faulted.rejoin_cost_time * 1e3:.3f} ms, "
        f"for {overhead * 1e3:+.3f} ms total overhead."
    )
    if trace_path:
        events = obs.TRACER.sink_path
        print(
            f"\nTrace events written to {events} — fault instants and degraded-world "
            f"spans are on the simulated clock.  Convert for Perfetto with:\n"
            f"  python -m repro trace convert {events} fault_study.trace.json"
        )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--method", default="topk-0.1", choices=sorted(PAPER_METHODS))
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write an observability trace of the faulted run")
    parser.add_argument("--regime", default=None, metavar="SPEC",
                        help="training regime, e.g. 'localsgd:4:delta' "
                             "(default: synchronous; 'ps' rejects fault plans)")
    args = parser.parse_args()
    run_study(args.method, args.trace, regime=args.regime)
