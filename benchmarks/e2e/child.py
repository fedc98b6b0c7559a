"""One workload, measured in this process.  ``run.py`` spawns it; not a user entry point.

Phases, in order: set-up (imports, golden gate, inputs, pilot op), timed ops
with tracing off, then — when asked — the traced pass, the interpreter-call
counters and the micro rows, and last the untimed ops that complete the seed
cycle.  Prints one JSON record as its only line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional

import numpy

from run import PINNED_ENV, SRC

sys.path.insert(0, str(SRC))

import hostref  # noqa: E402
import probe as probe_module  # noqa: E402
import workloads  # noqa: E402
from repro import golden  # noqa: E402


def canonical(payload) -> str:
    # The harness's own encoding, not repro's: the digest must not move when
    # the program changes how *it* fingerprints things.
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


class Session:
    """Runs ops of one workload and checks every result it gets back."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.ops_started = 0
        self.attempted = 0
        self.failures: List[str] = []
        #: Per seed-cycle key: the first op's results, as dicts and canonical JSON.
        self.cells: Dict[int, List[Dict]] = {}
        self._first: Dict[int, str] = {}

    def next_key(self) -> int:
        key = (self.seed + self.ops_started) % self.workload.cycle
        self.ops_started += 1
        return key

    def run(self, key: int):
        """The op itself; a raise inside the program is a failed op, not a crash."""
        try:
            return self.workload.run(key), None
        except Exception:  # noqa: BLE001 - any program error is the finding
            return None, traceback.format_exc()

    def check(self, key: int, output, error: Optional[str]) -> None:
        self.attempted += 1
        try:
            if error is not None:
                raise workloads.CheckFailed(f"op raised:\n{error}")
            cells = self.workload.verify(key, output)
            text = canonical(cells)
            if self._first.setdefault(key, text) != text:
                raise workloads.CheckFailed(
                    "result is not bit-identical to the first result for the same cell"
                )
            self.cells.setdefault(key, cells)
        except workloads.CheckFailed as failure:
            self.failures.append(f"{self.workload.name} op {self.attempted} (key {key}): {failure}")

    def bracketed(self, key: int, around=contextlib.nullcontext()):
        """One op between two reference probes: ``(wall seconds, mean probe seconds)``."""
        before = hostref.probe()
        start = time.perf_counter()
        with around:
            output, error = self.run(key)
        wall = time.perf_counter() - start
        after = hostref.probe()
        self.check(key, output, error)
        return wall, (before + after) / 2.0

    def complete_cycle(self) -> List[Dict]:
        """Run (untimed) the keys a short run never reached; the cycle's cells in key order."""
        for key in range(self.workload.cycle):
            if key not in self._first:
                self.check(key, *self.run(key))
        return [cell for key in sorted(self.cells) for cell in self.cells[key]]


def count_interpreter_calls(session: Session) -> Dict[str, Dict]:
    """Python-level and C-level calls of one op: work counters that repeat exactly."""
    calls = {"call": 0, "c_call": 0}

    def profiler(frame, event, arg) -> None:
        if event in calls:
            calls[event] += 1

    sys.setprofile(profiler)
    try:
        output, error = session.run(0)
    finally:
        sys.setprofile(None)
    session.check(0, output, error)
    return {
        "host.py_calls_per_op": metric(calls["call"], "count"),
        "host.c_calls_per_op": metric(calls["c_call"], "count"),
    }


def traced_pass(session: Session, ops: int, out_dir: str, untraced_cost_p50: float) -> Dict[str, Dict]:
    probe = probe_module.Probe()
    costs = []
    with probe.installed():
        for op_id in range(ops):
            wall, ref = session.bracketed(session.next_key(), around=probe.op(op_id))
            costs.append(wall / ref)
    folded = probe.fold()
    metrics = {}
    for layer in probe_module.LAYERS:
        metrics[f"{layer}.self_s_per_op"] = metric(folded[layer]["self_s"] / ops, "s")
        metrics[f"{layer}.calls_per_op"] = metric(folded[layer]["calls"] / ops, "count")
    metrics["probe.overhead_ratio"] = metric(statistics.median(costs) / untraced_cost_p50, "ratio")
    metrics["probe.spans_per_op"] = metric(len(probe.spans) / ops, "count")
    with open(os.path.join(out_dir, f"trace-{session.workload.name}.json"), "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": session.workload.name,
                "span_fields": ["layer", "name", "start_s", "end_s", "parent", "op"],
                "op_span_s": folded[probe_module.HARNESS]["span_s"],
                "harness_self_s": folded[probe_module.HARNESS]["self_s"],
                "layer_self_s": {layer: folded[layer]["self_s"] for layer in probe_module.LAYERS},
                "spans": probe.spans,
            },
            handle,
        )
    return metrics


def host_fingerprint() -> Dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "loadavg": list(os.getloadavg()),
        "pinned_env": {name: os.environ.get(name) for name in PINNED_ENV},
    }


def measure(args: argparse.Namespace, scratch: str) -> Dict:
    workload = workloads.build()[args.workload]
    session = Session(workload, args.seed)

    # ---- set-up: imports (above), golden gate, inputs, one pilot op ----
    hostref.probe()  # first call pays the page faults of the probe's own buffers
    setup_ref = hostref.probe()
    drift = golden.verify()
    if drift:
        session.failures.append(f"golden traces drifted: {sorted(drift)}")
    workload.setup(args.seed, scratch)
    pilot_key = session.next_key()
    session.check(pilot_key, *session.run(pilot_key))
    setup_wall_s = time.time() - args.spawned_at
    setup_ref = (setup_ref + hostref.probe()) / 2.0
    # Seconds at the host's nominal speed: raw set-up time moves 21-27 % with
    # the host's mode, which is the whole of the bound it is held to.
    setup_s = setup_wall_s * hostref.NOMINAL_S / setup_ref
    if args.setup_only:
        return {"setup_s": setup_s}

    # ---- timed ops, tracing off ----
    walls, refs = [], []
    timed_start = time.perf_counter()
    while len(walls) < args.ops if args.ops else time.perf_counter() - timed_start < args.seconds:
        wall, ref = session.bracketed(session.next_key())
        walls.append(wall)
        refs.append(ref)
    timed_s = time.perf_counter() - timed_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    costs = [wall / ref for wall, ref in zip(walls, refs)]
    # A single op (--ops 1) has no quartiles; it is its own median.
    _, cost_p50, cost_p75 = (
        statistics.quantiles(costs, n=4, method="inclusive") if len(costs) > 1 else costs * 3
    )
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "op_cost_ref_p50": metric(cost_p50, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "host.setup_wall_s": metric(setup_wall_s, "s"),
        "host.op_cost_ref_p75": metric(cost_p75, "ratio"),
        "host.ref_ms_p50": metric(statistics.median(refs) * 1e3, "ms"),
        "host.ref_ms_min": metric(min(refs) * 1e3, "ms"),
        "host.op_wall_s_min": metric(min(walls), "s"),
        "host.op_wall_s_p50": metric(statistics.median(walls), "s"),
        "host.ops_per_s": metric(len(walls) / timed_s, "1/s"),
    }

    # ---- traced pass, counters, micro rows ----
    if args.traced_ops:
        metrics.update(traced_pass(session, args.traced_ops, args.out, cost_p50))
        metrics.update(count_interpreter_calls(session))
    if args.micro != "none":
        import micro  # noqa: PLC0415 - its inputs are only worth building when asked for

        rows = [row for row in micro.ROWS if args.micro == "all" or row.home == workload.name]
        try:
            metrics.update(micro.measure(rows, scratch, smoke=args.smoke))
        except workloads.CheckFailed as failure:
            session.failures.append(f"micro row: {failure}")

    # ---- the simulated-clock results: identical for every seed ----
    cells = session.complete_cycle()
    if cells:
        metrics["sim_time_s"] = metric(sum(cell["simulated_time"] for cell in cells), "sim_s")
        metrics["wire_mb_per_worker"] = metric(
            sum(cell["comm_bytes_per_worker"] for cell in cells) / 1e6, "MB"
        )
        metrics["final_accuracy"] = metric(
            sum(cell["final_accuracy"] for cell in cells) / len(cells), "fraction"
        )
    return {
        "workload": workload.name,
        "seed": args.seed,
        "ops_timed": len(walls),
        "ops_attempted": session.attempted,
        "ops_failed": len(session.failures),
        "failures": session.failures,
        "result_digest": hashlib.sha256(canonical(cells).encode("utf-8")).hexdigest(),
        "cells_in_cycle": len(cells),
        "metrics": metrics,
        "samples": {"op_wall_s": walls, "ref_s": refs},
        "host": host_fingerprint(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.time() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=0, help="time exactly N ops instead of --seconds")
    parser.add_argument("--traced-ops", type=int, default=0)
    parser.add_argument("--micro", choices=("none", "home", "all"), default="none")
    parser.add_argument("--smoke", action="store_true", help="micro rows at one sample")
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=args.out)
    try:
        print(json.dumps(measure(args, scratch)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
