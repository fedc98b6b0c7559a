"""Instrumentation adapters: the observed backend wrapper and sim-span emitters.

Three pieces live here, all activated only while tracing is enabled:

* :class:`ObservedBackend` wraps any array backend and times the routed hot
  kernels (:data:`~repro.tensorlib.backend.HOT_KERNELS`): per-kernel call
  counters, elapsed seconds, operand bytes, a latency histogram, and — when
  bound to a tracer — one wall span per call.  Everything else forwards to
  the wrapped backend untouched, so numerics are bit-identical.
* :func:`install_backend_observer` plugs the wrapper into the single
  ``get_backend()`` seam (``repro.tensorlib.backend._OBSERVER``).
* :func:`emit_simulated_iteration` converts one engine
  :class:`~repro.simulation.engine.IterationTrace` into simulated-clock
  spans: per-rank backward segments (one track per simulated rank),
  per-bucket reduce windows + ready markers on the link-channel track, and
  the iteration critical path on the schedule track.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SIM_CHANNEL_TID, SIM_SCHEDULE_TID

__all__ = [
    "ObservedBackend",
    "install_backend_observer",
    "uninstall_backend_observer",
    "emit_simulated_iteration",
    "emit_ps_update",
]


class ObservedBackend:
    """A backend proxy that meters the hot kernels and forwards the rest.

    The wrapper never re-implements a kernel — results come byte-for-byte
    from the wrapped backend — so observing cannot change numerics, only
    record where the wall time went.
    """

    def __init__(
        self,
        inner,
        tracer=None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._inner = inner
        self._tracer = tracer
        self._registry = registry if registry is not None else MetricsRegistry()

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ObservedBackend({self._inner!r})"


def _kernel_method(kernel: str):
    def method(self: ObservedBackend, *args, **kwargs):
        start = time.perf_counter()
        result = getattr(self._inner, kernel)(*args, **kwargs)
        elapsed = time.perf_counter() - start
        nbytes = 0
        for arg in args:
            argbytes = getattr(arg, "nbytes", None)
            if argbytes is not None:
                nbytes += int(argbytes)
        prefix = f"backend.{self._inner.name}.{kernel}"
        registry = self._registry
        registry.inc(prefix + ".calls")
        registry.inc(prefix + ".seconds", elapsed)
        registry.inc(prefix + ".bytes", float(nbytes))
        registry.observe(f"backend.{kernel}.seconds", elapsed)
        if self._tracer is not None:
            self._tracer.emit_wall_span(
                f"kernel/{kernel}", "backend", start, elapsed,
                {"backend": self._inner.name, "bytes": nbytes},
            )
        return result

    method.__name__ = kernel
    return method


def _install_kernel_methods() -> None:
    from repro.tensorlib.backend import HOT_KERNELS  # noqa: PLC0415

    for kernel in HOT_KERNELS:
        setattr(ObservedBackend, kernel, _kernel_method(kernel))


_install_kernel_methods()


# --------------------------------------------------------------------------- #
# The get_backend() seam
# --------------------------------------------------------------------------- #
_WRAPPERS: Dict[int, ObservedBackend] = {}


def install_backend_observer(tracer) -> None:
    """Route ``get_backend()`` through an :class:`ObservedBackend` wrapper."""
    from repro.tensorlib import backend as backend_module  # noqa: PLC0415

    def observe(active):
        if isinstance(active, ObservedBackend):
            return active
        wrapper = _WRAPPERS.get(id(active))
        if wrapper is None or wrapper._inner is not active:
            wrapper = ObservedBackend(active, tracer=tracer, registry=tracer.metrics)
            _WRAPPERS[id(active)] = wrapper
        return wrapper

    backend_module._OBSERVER = observe


def uninstall_backend_observer() -> None:
    from repro.tensorlib import backend as backend_module  # noqa: PLC0415

    backend_module._OBSERVER = None
    _WRAPPERS.clear()


# --------------------------------------------------------------------------- #
# Simulated-clock spans from one engine iteration
# --------------------------------------------------------------------------- #
def emit_simulated_iteration(
    tracer,
    base: float,
    trace,
    bucket_fractions: Sequence[float],
    iteration: int,
) -> None:
    """Emit sim-clock spans for one :class:`IterationTrace` starting at ``base``.

    ``base`` is the simulated time at which the iteration starts (the
    timeline's total before this iteration was added); ``bucket_fractions``
    are the cumulative completion fractions the engine scheduled with, so
    each rank's backward splits into per-bucket segments exactly where the
    engine declared the bucket's gradients ready.
    """
    for rank, total in enumerate(trace.per_rank_compute):
        previous = 0.0
        for index, fraction in enumerate(bucket_fractions):
            end = total * fraction
            tracer.sim_span(
                f"backward b{index}", "sim", base + previous, end - previous,
                rank, rank=rank, bucket=index, iteration=iteration,
            )
            previous = end
        if not bucket_fractions:
            tracer.sim_span(
                "backward", "sim", base, total, rank, rank=rank, iteration=iteration
            )
    for bucket in trace.buckets:
        tracer.instant(
            f"ready b{bucket.index}", cat="sim", clock="sim",
            ts=base + bucket.ready_time, tid=SIM_CHANNEL_TID,
            bucket=bucket.index, iteration=iteration,
        )
        tracer.sim_span(
            f"reduce b{bucket.index}", "sim",
            base + bucket.start_time, bucket.end_time - bucket.start_time,
            SIM_CHANNEL_TID,
            bucket=bucket.index, iteration=iteration,
            comm_seconds=bucket.comm_seconds, queue_delay=bucket.queue_delay,
        )
    tracer.sim_span(
        f"iteration {iteration}", "sim", base, trace.wall_time, SIM_SCHEDULE_TID,
        iteration=iteration, compute_span=trace.compute_span,
        comm_busy=trace.comm_busy, overlap_saved=trace.overlap_saved,
        straggler_slack=trace.straggler_slack,
    )


def emit_ps_update(
    tracer,
    *,
    rank: int,
    pull,
    compute_seconds: float,
    push,
    staleness: int,
    update_index: int,
    payload_bytes: float,
    pull_bytes: float,
) -> None:
    """Emit sim-clock spans for one async parameter-server update.

    One worker's update is three intervals on the simulated clock — the
    parameter pull ``(start, end)``, the local backward pass, and the
    gradient push ``(start, end)`` — drawn on the worker's own rank track,
    plus an apply instant (carrying the measured staleness) on the schedule
    track at the moment the push landed.  The staleness also feeds the
    ``regime.staleness`` metrics histogram, so ``trace metrics`` summarises
    the staleness distribution without replaying the event log.
    """
    pull_start, pull_end = pull
    push_start, push_end = push
    tracer.sim_span(
        "regime/pull", "regime", pull_start, pull_end - pull_start, rank,
        rank=rank, update=update_index, bytes=pull_bytes,
    )
    tracer.sim_span(
        "regime/compute", "regime", pull_end, compute_seconds, rank,
        rank=rank, update=update_index,
    )
    tracer.sim_span(
        "regime/push", "regime", push_start, push_end - push_start, rank,
        rank=rank, update=update_index, bytes=payload_bytes,
        queue_delay=push_start - (pull_end + compute_seconds),
    )
    tracer.instant(
        "regime/apply", cat="regime", clock="sim",
        ts=push_end, tid=SIM_SCHEDULE_TID,
        rank=rank, update=update_index, staleness=staleness,
    )
    tracer.metrics.observe("regime.staleness", float(staleness))
