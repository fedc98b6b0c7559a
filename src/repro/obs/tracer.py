"""Dual-clock span tracer: wall time and simulated time in one event stream.

The process-wide singleton :data:`TRACER` is the observability bus every
subsystem reports into.  It is **disabled by default** and every hot call
site guards on the single module-level flag (``TRACER.enabled`` — one
attribute read), so the disabled path adds nothing measurable to the
training step; what switching it on costs is the benchmark's
``obs.traced_op_ratio`` micro row (``benchmarks/e2e/micro.py``).

Two clocks, one trace:

* **wall** spans measure real host work (kernel calls, encode/decode CPU
  time, campaign cells).  They are stamped with an absolute epoch-based
  timestamp — workers in a multiprocessing pool share the wall clock, so
  their tracks align in the viewer — and additionally carry ``sim_at``, the
  simulated-clock reading when the span started.
* **sim** spans live on the modeled cluster's clock (the discrete-event
  engine's schedule: per-rank backward segments, per-bucket reduce windows,
  iteration critical paths).  They carry ``wall_at``, the wall-clock reading
  when they were emitted.

Events stream to an append-only JSONL sink when a path is configured (each
line is one ``json.dumps`` + flush, so concurrent pool workers appending to
the same file interleave whole lines), or accumulate in memory otherwise
(tests).  :mod:`repro.obs.export` turns either into Chrome Trace Event JSON
and text summaries.
"""

from __future__ import annotations

import json
import os
import time
from typing import IO, List, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "SIM_PID",
    "SIM_CHANNEL_TID",
    "SIM_SCHEDULE_TID",
    "NULL_SPAN",
    "Tracer",
    "TRACER",
]

#: Default synthetic "process" holding the simulated cluster's tracks.
#: Each traced experiment allocates its own sim pid (:meth:`Tracer.new_sim_process`)
#: so two cells of one sweep never overlay their schedules on one track.
SIM_PID = 0
#: Track (tid) of the shared link channel inside the simulated process.
SIM_CHANNEL_TID = 1_000_000
#: Track (tid) of the iteration schedule (critical path) inside it.
SIM_SCHEDULE_TID = 1_000_001


class _NullSpan:
    """Reusable no-op context manager returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: Public no-op span: hot call sites that pre-compute span arguments can
#: branch on ``TRACER.enabled`` themselves and fall back to this shared
#: context manager, paying nothing for argument construction when disabled.
NULL_SPAN = _NULL_SPAN


class _Span:
    """Context manager measuring one wall-clock span on the current process."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer.emit_wall_span(
            self._name, self._cat, self._start,
            time.perf_counter() - self._start, self._args,
        )
        return False


class Tracer:
    """The dual-clock tracer + metrics registry (one per process).

    Use the module singleton :data:`TRACER`; constructing private instances
    is only useful in tests.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.metrics = MetricsRegistry()
        #: Current simulated-clock reading; advanced by the training loop so
        #: wall spans can be stamped with both clocks.
        self.sim_now = 0.0
        self.sink_path: Optional[str] = None
        self.chrome_path: Optional[str] = None
        self._sink: Optional[IO[str]] = None
        self._events: List[dict] = []
        self._pid = 0
        self._epoch = 0.0
        self._perf0 = 0.0
        self._sim_pid = SIM_PID
        self._sim_serial = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def enable(self, path: Optional[str] = None, role: str = "main") -> None:
        """Start tracing.

        ``path`` of ``None`` records in memory (:meth:`events`).  A path
        ending in ``.jsonl`` streams raw events there; any other path is
        treated as the Chrome-trace destination, with raw events streamed to
        a ``<path>.jsonl`` sidecar (the exporter converts at :meth:`finish`).
        """
        if self.enabled:
            self.disable()
        self.metrics = MetricsRegistry()
        self._events = []
        self.sim_now = 0.0
        self._pid = os.getpid()
        self._sim_pid = SIM_PID
        self._sim_serial = 0
        self._perf0 = time.perf_counter()
        self._epoch = time.time()
        self.sink_path = self.chrome_path = None
        self._sink = None
        if path is not None:
            path = os.fspath(path)
            if path.endswith(".jsonl"):
                self.sink_path = path
            else:
                self.sink_path = path + ".jsonl"
                self.chrome_path = path
            directory = os.path.dirname(self.sink_path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._sink = open(self.sink_path, "a", encoding="utf-8")
        self.enabled = True
        self._emit(
            {"kind": "meta", "meta": "process_name", "pid": self._pid,
             "name": f"repro {role} {self._pid}"}
        )
        # Route backend kernel calls through the observing wrapper.
        from repro.obs.instrument import install_backend_observer  # noqa: PLC0415

        install_backend_observer(self)

    def disable(self) -> None:
        """Stop tracing: flush metrics, close the sink, uninstall hooks."""
        if not self.enabled:
            return
        self.flush_metrics()
        from repro.obs.instrument import uninstall_backend_observer  # noqa: PLC0415

        uninstall_backend_observer()
        self.enabled = False
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def finish(self) -> dict:
        """Stop tracing and return ``{"jsonl": ..., "chrome": ...}`` paths."""
        paths = {"jsonl": self.sink_path, "chrome": self.chrome_path}
        self.disable()
        return paths

    # ------------------------------------------------------------------ #
    # Emission
    # ------------------------------------------------------------------ #
    def _emit(self, event: dict) -> None:
        if self._sink is not None:
            self._sink.write(json.dumps(event, separators=(",", ":")) + "\n")
            self._sink.flush()
        else:
            self._events.append(event)

    def events(self) -> List[dict]:
        """In-memory events (empty when streaming to a JSONL sink)."""
        return list(self._events)

    def wall_now(self) -> float:
        """Absolute wall-clock seconds (epoch-based, perf_counter-resolved)."""
        return self._epoch + (time.perf_counter() - self._perf0)

    def span(self, name: str, cat: str = "repro", **args):
        """Context manager timing a wall-clock span; no-op when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, cat, args)

    def emit_wall_span(
        self, name: str, cat: str, start_perf: float, duration: float, args: dict
    ) -> None:
        """Record an already-measured wall span (``start_perf`` from perf_counter)."""
        if not self.enabled:
            return
        self._emit(
            {"kind": "span", "name": name, "cat": cat, "clock": "wall",
             "ts": self._epoch + (start_perf - self._perf0), "dur": duration,
             "pid": self._pid, "tid": 0, "sim_at": self.sim_now,
             "args": args or {}}
        )

    def new_sim_process(self, label: str) -> int:
        """Open a fresh simulated-cluster track group (one per experiment).

        Returns the synthetic pid subsequent :meth:`sim_span` calls use.
        Sim pids are negative and derived from the real pid plus a serial,
        so concurrent pool workers appending to one JSONL sink never collide
        — and two sequential experiments never overlay their schedules on
        the same tracks.
        """
        if not self.enabled:
            return SIM_PID
        self._sim_serial += 1
        self._sim_pid = -(self._pid * 10_000 + self._sim_serial)
        self.sim_now = 0.0
        self._emit(
            {"kind": "meta", "meta": "process_name", "pid": self._sim_pid,
             "name": f"sim: {label}"}
        )
        return self._sim_pid

    def sim_span(
        self, name: str, cat: str, ts: float, dur: float, tid: int, **args
    ) -> None:
        """Record a span on the simulated clock (``ts``/``dur`` in sim seconds)."""
        if not self.enabled:
            return
        self._emit(
            {"kind": "span", "name": name, "cat": cat, "clock": "sim",
             "ts": ts, "dur": max(0.0, dur), "pid": self._sim_pid, "tid": tid,
             "wall_at": self.wall_now(), "args": args or {}}
        )

    def instant(
        self,
        name: str,
        cat: str = "repro",
        clock: str = "wall",
        ts: Optional[float] = None,
        pid: Optional[int] = None,
        tid: int = 0,
        **args,
    ) -> None:
        """Record a zero-duration marker on either clock."""
        if not self.enabled:
            return
        if clock == "wall":
            if ts is None:
                ts = self.wall_now()
            if pid is None:
                pid = self._pid
        else:
            if ts is None:
                ts = self.sim_now
            if pid is None:
                pid = self._sim_pid
        self._emit(
            {"kind": "instant", "name": name, "cat": cat, "clock": clock,
             "ts": ts, "pid": pid, "tid": tid, "args": args or {}}
        )

    def flush_metrics(self) -> None:
        """Write a cumulative metrics snapshot into the event stream.

        Safe to call repeatedly (pool workers flush after every cell); the
        exporter keeps only the last snapshot per ``(pid, name)``.
        """
        if not self.enabled:
            return
        for event in self.metrics.snapshot_events(self._pid):
            self._emit(event)


#: The process-wide tracer every instrumented call site guards on.
TRACER = Tracer()
