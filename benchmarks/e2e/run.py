#!/usr/bin/env python3
"""The repo's benchmark: five workloads, host-normalised op cost, a layer probe.

    python3 benchmarks/e2e/run.py [--seed S] [--seconds T | --ops N] [--out DIR] [--smoke]
    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1

The first form runs all five workloads — timed ops, then the traced pass and
the workload's micro rows — and writes one output set under ``DIR/run-NNN/``
for ``compare.py``.  The second is the form ``BENCHMARK.json`` names: one
workload, end-to-end metrics (``--trace 0``) or per-layer metrics
(``--trace 1``), and a JSON result as the last line of stdout.

This process only orchestrates: it imports neither NumPy nor ``repro``.  Each
workload runs in a fresh subprocess (``child.py``), one at a time, closed loop
with a single client, BLAS/OpenMP pinned to one thread and
``PYTHONHASHSEED=0``.  See README.md beside this file for what each metric
means and why the timing is host-normalised.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"

#: Environment of every workload subprocess, set before NumPy loads there.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

TRACED_OPS = 6
#: Share of ``--seconds`` a ``--trace 1`` run spends on untraced reference
#: ops; the rest of its time goes to the traced ops and the micro rows.
TRACE_RUN_TIMED_SHARE = 0.3
#: Fresh-process set-ups whose median is reported as ``setup_s``.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def load_manifest() -> Dict:
    with open(MANIFEST, "r", encoding="utf-8") as handle:
        return json.load(handle)


def spawn(child_args: List[str]) -> Dict:
    """Run one child to completion and return the JSON object it printed last."""
    env = {**os.environ, **PINNED_ENV}
    command = [sys.executable, str(HERE / "child.py"), "--spawned-at", repr(time.time())]
    completed = subprocess.run(
        command + child_args, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(f"workload subprocess failed with exit code {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_workload(name: str, args: argparse.Namespace, out_dir: Path, traced: bool,
                 micro: str, seconds: float, setup_samples: int) -> Dict:
    """One workload: ``setup_samples - 1`` set-up-only children, then the measuring child."""
    traced_ops = (1 if args.smoke else TRACED_OPS) if traced else 0
    child_args = ["--workload", name, "--seed", str(args.seed), "--out", str(out_dir)]
    setups = [
        spawn(child_args + ["--setup-only"])["setup_s"]
        for _ in range(0 if args.smoke else setup_samples - 1)
    ]
    child_args += ["--seconds", repr(seconds), "--traced-ops", str(traced_ops), "--micro", micro]
    if args.ops:
        child_args += ["--ops", str(args.ops)]
    if args.smoke:
        child_args += ["--smoke"]
    record = spawn(child_args)
    setups.append(record["metrics"]["setup_s"]["value"])
    record["metrics"]["setup_s"]["value"] = statistics.median(setups)
    record["samples"]["setup_s"] = setups
    return record


SIMULATED_CLOCK = ("sim_time_s", "wire_mb_per_worker", "final_accuracy")


def print_record(record: Dict) -> None:
    name = record["workload"]
    print(
        f"== {name}: {record['ops_timed']} timed ops, ops_attempted={record['ops_attempted']} "
        f"ops_failed={record['ops_failed']} result_digest={record['result_digest'][:16]}"
    )
    for metric_name, entry in record["metrics"].items():
        note = "  (simulated clock)" if metric_name in SIMULATED_CLOCK else ""
        print(f"{name:18s} {metric_name:46s} {entry['value']:>16.9g} {entry['unit']}{note}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")


def next_run_dir(out: Path) -> Path:
    taken = [int(p.name[4:]) for p in out.glob("run-*") if p.name[4:].isdigit()]
    return out / f"run-{max(taken, default=-1) + 1:03d}"


def run(args: argparse.Namespace) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found: the benchmark measures the program in src/",
              file=sys.stderr)
        return 2
    manifest = load_manifest()
    if args.seconds is None:
        args.seconds = float(manifest["run_seconds"])
    out = Path(args.out).resolve()

    if args.workload is None:
        # The full output set: every workload, timed + traced + its own micro rows.
        run_dir = next_run_dir(out)
        run_dir.mkdir(parents=True)
        failed = 0
        for workload in manifest["workloads"]:
            record = run_workload(
                workload["name"], args, run_dir,
                traced=True, micro="home", seconds=args.seconds, setup_samples=SETUP_SAMPLES,
            )
            print_record(record)
            failed += record["ops_failed"]
            with open(run_dir / f"{workload['name']}.json", "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=1)
        print(f"output set written to {run_dir}")
        return 1 if failed else 0

    # The BENCHMARK.json contract: one workload, one metric group.
    if args.workload not in [w["name"] for w in manifest["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.trace:
        wanted = manifest["per_layer"]
        record = run_workload(
            args.workload, args, out, traced=True, micro="all",
            seconds=args.seconds * TRACE_RUN_TIMED_SHARE, setup_samples=1,
        )
    else:
        wanted = manifest["end_to_end"]
        record = run_workload(
            args.workload, args, out, traced=False, micro="none",
            seconds=args.seconds, setup_samples=SETUP_SAMPLES,
        )
    print_record(record)
    print(
        json.dumps(
            {
                "correct": record["ops_failed"] == 0,
                "attempted": record["ops_attempted"],
                "failed": record["ops_failed"],
                # A run whose every op failed has no cells, hence no simulated-clock metrics.
                "metrics": {
                    entry["name"]: record["metrics"][entry["name"]]
                    for entry in wanted if entry["name"] in record["metrics"]
                },
            }
        )
    )
    return 1 if record["ops_failed"] else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="run one workload (the BENCHMARK.json form)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed: the order inputs arrive in")
    parser.add_argument("--seconds", type=float, default=None, help="length of the timed section")
    parser.add_argument("--ops", type=int, default=0, help="time exactly N ops instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--out", default=str(HERE / "out"), help="directory for output sets and traces")
    parser.add_argument("--smoke", action="store_true",
                        help="3 ops, 1 traced op, micro rows at 1 repeat: checks that everything runs")
    args = parser.parse_args(argv)
    if args.smoke and not args.ops:
        args.ops = 3
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
