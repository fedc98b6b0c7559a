#!/usr/bin/env python3
"""Compare two output sets of ``run.py`` under the bounds in ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A B

``A`` is the parent (or the first of two runs of the same code), ``B`` the
change.  Each is a directory ``run.py --out`` wrote: either one ``run-NNN``
directory or the directory holding several of them (every ``run-*`` inside is
one run of the set).  One row is printed per (end-to-end metric, workload):

* ``same``       the medians differ by no more than the metric's bound;
* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     B's median is better by more than the bound, or every run of B
                 reads better than every run of A;
* ``unresolved`` the run-to-run spread (interquartile range over the median,
                 the wider of the two sets) exceeds the bound, so the sets
                 cannot tell ``same`` from ``worse``;
* ``DIFFERENT``  a simulated-clock metric, the result digest or an exactly
                 repeating counter is not identical.

A set of a single run has no run-to-run spread to show, so ``unresolved``
needs at least two runs a side.  Exits 1 when any row is ``worse``,
``unresolved`` or ``DIFFERENT``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Bounds at or below this are "exact": the metric is on the simulated clock
#: and must repeat to the last digit.
EXACT_BOUND = 1e-6

#: Per-workload values that must be identical between the sets, beside the
#: exact end-to-end metrics.
EXACT_FIELDS = ("result_digest", "host.py_calls_per_op", "host.c_calls_per_op")


def load_set(directory: Path, workloads: List[str]) -> List[Dict[str, Dict]]:
    """The runs of one output set, each ``{workload: record}``."""
    run_dirs = sorted(directory.glob("run-*")) or [directory]
    runs = []
    for run_dir in run_dirs:
        records = {}
        for name in workloads:
            path = run_dir / f"{name}.json"
            if path.exists():
                with open(path, "r", encoding="utf-8") as handle:
                    records[name] = json.load(handle)
        if records:
            runs.append(records)
    if not runs:
        raise SystemExit(f"error: no <workload>.json found under {directory}")
    return runs


def relative_iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: List[float], b: List[float], bound: float, better: str):
    """``(verdict, shift, spread)``; a positive shift means B is worse."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    shift = sign * (median_b - median_a) / abs(median_a)
    spread = max(relative_iqr(a), relative_iqr(b))
    if bound <= EXACT_BOUND:
        identical = all(abs(value - a[0]) <= bound * abs(a[0]) for value in a + b)
        return ("same" if identical else "DIFFERENT"), shift, spread
    every_b_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not every_b_better:
        name = "unresolved"
    elif shift > bound:
        name = "worse"
    elif shift < -bound or (every_b_better and spread > bound):
        name = "better"
    else:
        name = "same"
    return name, shift, spread


def field(record: Dict, name: str):
    if name in record:
        return record[name]
    entry = record["metrics"].get(name)
    return None if entry is None else entry["value"]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(MANIFEST, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    workloads = [workload["name"] for workload in manifest["workloads"]]
    set_a, set_b = (load_set(Path(arg), workloads) for arg in argv)
    print(f"A = {argv[0]} ({len(set_a)} run(s));  B = {argv[1]} ({len(set_b)} run(s))")
    print(
        f"{'workload':18s} {'metric':20s} {'median A':>14s} {'median B':>14s} "
        f"{'B worse by':>10s} {'spread':>8s} {'bound':>8s}  verdict"
    )
    bad = 0
    for name in workloads:
        records_a = [run[name] for run in set_a if name in run]
        records_b = [run[name] for run in set_b if name in run]
        if not records_a or not records_b:
            print(f"{name:18s} missing from {'A' if not records_a else 'B'}")
            bad += 1
            continue
        for entry in manifest["end_to_end"]:
            a = [field(record, entry["name"]) for record in records_a]
            b = [field(record, entry["name"]) for record in records_b]
            result, shift, spread = verdict(a, b, entry["bound"], entry["better"])
            bad += result in ("worse", "unresolved", "DIFFERENT")
            print(
                f"{name:18s} {entry['name']:20s} {statistics.median(a):14.6g} "
                f"{statistics.median(b):14.6g} {shift:+10.2%} {spread:8.2%} {entry['bound']:8.2g}  {result}"
            )
        for exact in EXACT_FIELDS:
            values = {field(record, exact) for record in records_a + records_b} - {None}
            if len(values) > 1:
                bad += 1
                print(f"{name:18s} {exact:20s} DIFFERENT: {sorted(map(str, values))}")
        failed = sum(record["ops_failed"] for record in records_a + records_b)
        if failed:
            bad += 1
            print(f"{name:18s} ops_failed = {failed}")
    print("no regression, nothing unresolved" if not bad else f"{bad} row(s) need attention")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
