"""Trace exporters: JSONL loading, Chrome Trace Event JSON, text summaries.

The raw event stream (one dict per line, see :mod:`repro.obs.tracer`) is the
source of truth; everything here is a pure function over a list of those
dicts:

* :func:`load_events` reads a ``.jsonl`` stream (or the in-memory list);
* :func:`chrome_trace` converts to the Chrome Trace Event format — one
  Perfetto track per simulated rank (plus the link channel and the schedule)
  and one per real process — with both clocks mapped onto the shared
  microsecond axis (wall timestamps are rebased to the earliest wall event,
  sim timestamps start at 0);
* :func:`validate_chrome_trace` checks the structural invariants the tests
  and ``python -m repro trace validate`` gate on (required fields, proper
  span nesting, monotone per-track timestamps);
* :func:`summary` renders the text table ``python -m repro trace report``
  prints: span aggregates per clock plus the merged metrics.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import Histogram
from repro.obs.tracer import SIM_CHANNEL_TID, SIM_PID, SIM_SCHEDULE_TID

__all__ = [
    "load_events",
    "chrome_trace",
    "write_chrome",
    "validate_chrome_trace",
    "summary",
    "format_table",
]

#: Microseconds per second (Chrome trace timestamps are in microseconds).
_US = 1e6
_VALID_PH = frozenset("XiIMBEC")


def load_events(path: str) -> List[dict]:
    """Read a raw JSONL event stream (one event dict per line)."""
    events: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


# --------------------------------------------------------------------------- #
# Chrome Trace Event conversion
# --------------------------------------------------------------------------- #
def _sim_thread_name(tid: int) -> str:
    if tid == SIM_CHANNEL_TID:
        return "link channel"
    if tid == SIM_SCHEDULE_TID:
        return "schedule"
    return f"rank {tid}"


def chrome_trace(events: Sequence[dict]) -> dict:
    """Convert a raw event stream to a Chrome Trace Event document.

    Wall timestamps are rebased so the earliest wall event sits at t=0;
    simulated timestamps already start at 0, so the two clock domains share
    one microsecond axis (they are *different clocks* — the alignment is for
    side-by-side reading, not causality).  Timestamps stay floats: rounding
    to integer microseconds could make an exactly-nested child span appear
    to overrun its parent.
    """
    wall_ts = [
        event["ts"]
        for event in events
        if event.get("kind") in ("span", "instant") and event.get("clock") == "wall"
    ]
    wall_base = min(wall_ts) if wall_ts else 0.0

    trace_events: List[dict] = []
    tracks: Dict[Tuple[int, int], bool] = {}
    process_names: Dict[int, str] = {}

    for event in events:
        kind = event.get("kind")
        if kind == "meta" and event.get("meta") == "process_name":
            process_names[event["pid"]] = event.get("name", f"pid {event['pid']}")
            continue
        if kind not in ("span", "instant"):
            continue
        is_wall = event.get("clock") == "wall"
        ts = (event["ts"] - wall_base) * _US if is_wall else event["ts"] * _US
        pid = int(event["pid"])
        tid = int(event.get("tid", 0))
        tracks[(pid, tid)] = True
        args = dict(event.get("args") or {})
        if is_wall and "sim_at" in event:
            args["sim_at"] = event["sim_at"]
        if not is_wall and "wall_at" in event:
            args["wall_at"] = event["wall_at"]
        args["clock"] = event.get("clock", "wall")
        entry = {
            "name": event.get("name", "?"),
            "cat": event.get("cat", "repro"),
            "pid": pid,
            "tid": tid,
            "ts": ts,
            "args": args,
        }
        if kind == "span":
            entry["ph"] = "X"
            entry["dur"] = max(0.0, event.get("dur", 0.0)) * _US
        else:
            entry["ph"] = "i"
            entry["s"] = "t"
        trace_events.append(entry)

    # Chrome sorts tracks and the validator checks monotonicity in file
    # order, so emit spans ordered within each track.
    trace_events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"], -e.get("dur", 0.0)))

    metadata: List[dict] = []
    pids = sorted({pid for pid, _ in tracks})
    for pid in pids:
        if pid <= SIM_PID:
            name = process_names.get(pid, "simulated cluster")
        else:
            name = process_names.get(pid, f"repro process {pid}")
        metadata.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0, "ts": 0.0,
             "args": {"name": name}}
        )
    for pid, tid in sorted(tracks):
        name = _sim_thread_name(tid) if pid <= SIM_PID else "main"
        metadata.append(
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid, "ts": 0.0,
             "args": {"name": name}}
        )

    return {"traceEvents": metadata + trace_events, "displayTimeUnit": "ms"}


def write_chrome(events: Sequence[dict], path: str) -> dict:
    """Convert and write a Chrome trace JSON file; returns the document."""
    document = chrome_trace(events)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return document


# --------------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------------- #
def validate_chrome_trace(document: dict) -> List[str]:
    """Structural validation of a Chrome Trace Event document.

    Returns a list of error strings (empty = valid).  Checks the fields the
    viewers require (``ph``/``ts``/``pid``/``tid``/``name``; ``dur`` on
    complete events), that per-track timestamps are monotone in file order,
    and that complete spans on one track nest properly (no partial overlap).
    """
    errors: List[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    trace_events = document.get("traceEvents")
    if not isinstance(trace_events, list):
        return ["missing 'traceEvents' list"]

    last_ts: Dict[Tuple[int, int], float] = {}
    spans_by_track: Dict[Tuple[int, int], List[Tuple[float, float, str]]] = {}

    for position, event in enumerate(trace_events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _VALID_PH:
            errors.append(f"{where}: bad or missing ph {ph!r}")
            continue
        for field in ("name", "pid", "tid"):
            if field not in event:
                errors.append(f"{where}: missing {field!r}")
        if not isinstance(event.get("pid"), int) or not isinstance(event.get("tid"), int):
            errors.append(f"{where}: pid/tid must be integers")
            continue
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"{where}: missing numeric ts")
            continue
        track = (event["pid"], event["tid"])
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: X event needs dur >= 0")
                continue
            if ts < last_ts.get(track, float("-inf")):
                errors.append(
                    f"{where}: timestamps not monotone on track pid={track[0]} tid={track[1]}"
                )
            last_ts[track] = ts
            spans_by_track.setdefault(track, []).append((ts, dur, event.get("name", "?")))

    # Proper nesting: on one track, a span starting inside another must also
    # end inside it (equal boundaries allowed — adjacent segments touch).
    for track, spans in spans_by_track.items():
        spans.sort(key=lambda span: (span[0], -span[1]))
        stack: List[Tuple[float, float, str]] = []
        for ts, dur, name in spans:
            while stack and ts >= stack[-1][0] + stack[-1][1] - 1e-9:
                stack.pop()
            if stack:
                parent_end = stack[-1][0] + stack[-1][1]
                if ts + dur > parent_end + 1e-6:
                    errors.append(
                        f"span {name!r} on track pid={track[0]} tid={track[1]} "
                        f"overlaps {stack[-1][2]!r} without nesting"
                    )
            stack.append((ts, dur, name))
    return errors


# --------------------------------------------------------------------------- #
# Text summary
# --------------------------------------------------------------------------- #
def format_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Plain-text table: header, dashed rule, aligned columns."""
    widths = [len(str(column)) for column in header]
    for row in rows:
        widths = [max(width, len(str(cell))) for width, cell in zip(widths, row)]
    lines = [
        "  ".join(str(cell).ljust(width) for cell, width in zip(header, widths)),
        "  ".join("-" * width for width in widths),
    ]
    lines.extend(
        "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)) for row in rows
    )
    return "\n".join(lines)


def merge_metrics(events: Sequence[dict]) -> dict:
    """Aggregate metric snapshot events across processes.

    The last snapshot per ``(pid, name)`` wins (workers flush cumulative
    snapshots repeatedly), then counters sum across processes, gauges keep
    the last value seen, and histogram buckets add.
    """
    last: Dict[Tuple[Optional[int], str, str], dict] = {}
    for event in events:
        if event.get("kind") == "metric":
            last[(event.get("pid"), event["metric"], event["name"])] = event

    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Histogram] = {}
    for (_, metric, name), event in sorted(last.items(), key=lambda item: str(item[0])):
        if metric == "counter":
            counters[name] = counters.get(name, 0.0) + event["value"]
        elif metric == "gauge":
            gauges[name] = event["value"]
        elif metric == "histogram":
            histogram = histograms.setdefault(name, Histogram())
            histogram.merge_buckets(event.get("buckets", []))
            histogram.sum += event.get("sum", 0.0)
            histogram.count = sum(histogram.counts)
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def summary(events: Sequence[dict]) -> str:
    """Human-readable roll-up: span aggregates per clock + merged metrics."""
    wall: Dict[str, List[float]] = {}
    sim: Dict[str, List[float]] = {}
    for event in events:
        if event.get("kind") != "span":
            continue
        target = wall if event.get("clock") == "wall" else sim
        target.setdefault(event.get("name", "?"), []).append(event.get("dur", 0.0))

    sections: List[str] = []

    def span_section(title: str, spans: Dict[str, List[float]], unit_scale: float, unit: str):
        if not spans:
            return
        rows = []
        for name in sorted(spans, key=lambda n: -sum(spans[n])):
            durations = spans[name]
            total = sum(durations)
            rows.append(
                (name, len(durations), f"{total * unit_scale:.3f}",
                 f"{total / len(durations) * unit_scale:.3f}",
                 f"{max(durations) * unit_scale:.3f}")
            )
        sections.append(
            f"== {title} ==\n"
            + format_table(("span", "count", f"total {unit}", f"mean {unit}", f"max {unit}"), rows)
        )

    span_section("spans (wall clock)", wall, 1e3, "ms")
    span_section("spans (simulated clock)", sim, 1.0, "s")

    metrics = merge_metrics(events)
    if metrics["counters"]:
        rows = [(name, f"{value:g}") for name, value in sorted(metrics["counters"].items())]
        sections.append("== counters ==\n" + format_table(("counter", "value"), rows))
    if metrics["gauges"]:
        rows = [(name, f"{value:g}") for name, value in sorted(metrics["gauges"].items())]
        sections.append("== gauges ==\n" + format_table(("gauge", "value"), rows))
    if metrics["histograms"]:
        rows = []
        for name, histogram in sorted(metrics["histograms"].items()):
            rows.append(
                (name, histogram.count, f"{histogram.mean:.3g}",
                 f"{histogram.quantile(0.5):.3g}", f"{histogram.quantile(0.99):.3g}")
            )
        sections.append(
            "== histograms ==\n"
            + format_table(("histogram", "count", "mean", "~p50", "~p99"), rows)
        )

    instants = sum(1 for event in events if event.get("kind") == "instant")
    spans_total = sum(len(v) for v in wall.values()) + sum(len(v) for v in sim.values())
    sections.append(f"{spans_total} spans, {instants} instants, {len(events)} raw events")
    return "\n\n".join(sections)
