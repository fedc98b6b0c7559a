"""``repro.obs`` — the process-wide dual-clock observability layer.

One tracer (:data:`TRACER`), one metrics registry (its ``.metrics``), one
event stream.  Disabled by default behind a single module-level guard
(``TRACER.enabled``); ``python -m repro run|sweep --trace PATH`` enables it
and ``python -m repro trace report|validate PATH`` consumes the output.

See :mod:`repro.obs.tracer` for the event model, :mod:`repro.obs.export`
for the JSONL / Chrome Trace Event / summary exporters, and
:mod:`repro.obs.instrument` for the backend wrapper and simulated-clock
span emitters.
"""

from repro.obs.metrics import BUCKET_BOUNDS, Histogram, MetricsRegistry
from repro.obs.tracer import (
    SIM_CHANNEL_TID,
    SIM_PID,
    SIM_SCHEDULE_TID,
    TRACER,
    Tracer,
)

__all__ = [
    "BUCKET_BOUNDS",
    "Histogram",
    "MetricsRegistry",
    "SIM_PID",
    "SIM_CHANNEL_TID",
    "SIM_SCHEDULE_TID",
    "TRACER",
    "Tracer",
    "enable",
    "disable",
]


def enable(path=None, role="main") -> None:
    """Enable the process tracer (see :meth:`Tracer.enable`)."""
    TRACER.enable(path=path, role=role)


def disable() -> None:
    """Disable the process tracer, flushing metrics and closing the sink."""
    TRACER.disable()
