"""Tracked performance microbenchmarks.

``python -m repro perf`` runs the suite in :mod:`repro.perf.suite` (train-step,
codec encode/decode, engine event-loop and campaign-dispatch timers, each with
warmup and median-of-k) and writes ``BENCH_perf.json``.  The committed copy of
that file is the regression baseline the CI perf-smoke job checks against.
"""

from repro.perf.suite import (
    BenchResult,
    SUITE,
    check_regressions,
    host_fingerprint,
    hosts_match,
    run_suite,
    time_callable,
    write_report,
)

__all__ = [
    "BenchResult",
    "SUITE",
    "check_regressions",
    "host_fingerprint",
    "hosts_match",
    "run_suite",
    "time_callable",
    "write_report",
]
