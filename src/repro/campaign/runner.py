"""Campaign execution: cache lookup, parallel training, fail-soft capture.

:func:`run_campaign` takes a :class:`~repro.campaign.spec.CampaignSpec` (or an
explicit cell list), serves unchanged cells from the
:class:`~repro.campaign.store.ResultStore`, and trains the remaining cells —
in a ``multiprocessing`` pool when ``jobs > 1``, in-process otherwise.  Every
cell is independent and internally seeded (``config.seed`` drives the dataset,
model init, data order and the compressor), so parallel and serial execution
produce bit-identical results; outcomes are committed to the store in cell
order regardless of completion order, keeping the store file deterministic
too.  Independent does not mean prepared from scratch: the cells of one
campaign that agree on dataset, split and pre-trained model share them (see
:func:`run_campaign`), which changes how long a sweep takes and nothing else.

The runner is hardened against its own failures — large fault-study sweeps
must survive the faults of the machine running them:

* a failing cell never aborts the sweep: its traceback is captured on the
  :class:`CellOutcome` (status ``"failed"``) and the rest keeps running
  (callers wanting fail-fast call :meth:`CampaignReport.raise_failures`);
* **transient** failures are retried with bounded exponential backoff and
  deterministic jitter (derived from the cell fingerprint, so two runs of the
  same sweep sleep identically); deterministic errors — ``ValueError`` and
  friends, which re-running cannot fix — are never retried;
* a **hung** worker is caught by the per-cell watchdog (``cell_timeout``):
  the overdue cell settles with status ``"timeout"`` and the pool is recycled
  so its workers come back; a **killed** worker (whose task would otherwise
  never return) is detected by the pool's pid set changing, and its in-flight
  cells are resubmitted against the retry budget.

Chaos injection for tests and CI lives behind ``REPRO_CHAOS_MODE``
(``raise`` / ``kill`` / ``hang``), scoped by ``REPRO_CHAOS_LABEL`` (substring
of the cell label) and fired at most once when ``REPRO_CHAOS_DIR`` points at
a marker directory.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.store import ResultStore
from repro.obs.tracer import TRACER
from repro.simulation.experiment import ExperimentResult, _WorkloadShare, run_experiment

#: Outcome statuses: freshly trained, served from the store, errored, or
#: killed by the per-cell watchdog.
STATUS_RAN = "ran"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"

#: Exception type names whose failures are deterministic: the same cell would
#: fail the same way on every attempt, so retrying only burns time.
DETERMINISTIC_ERRORS = frozenset(
    {"ValueError", "TypeError", "KeyError", "AssertionError", "NotImplementedError"}
)

#: Retry backoff ceiling (seconds) — keeps the exponential bounded.
MAX_RETRY_DELAY = 2.0


@dataclass
class CellOutcome:
    """What happened to one campaign cell."""

    index: int
    cell: CampaignCell
    key: str
    status: str
    result: Optional[ExperimentResult] = None
    error: Optional[str] = None
    #: Executions started for this cell (0 for cache hits, 1 for a clean
    #: first run, >1 when the runner retried it).
    attempts: int = 1


@dataclass(frozen=True)
class Progress:
    """One settled cell, as reported to the progress callback.

    ``elapsed_s`` is the cell's own training wall time (0 for cache hits);
    ``eta_s`` is a rolling estimate of the remaining run time — mean elapsed
    of the cells trained so far times the cells still pending, divided by
    the worker count — and ``None`` until the first fresh cell lands.
    """

    outcome: CellOutcome
    done: int
    total: int
    elapsed_s: float = 0.0
    cache_hit: bool = False
    eta_s: Optional[float] = None


ProgressCallback = Callable[[Progress], None]


@dataclass
class CampaignReport:
    """All outcomes of one campaign run, in cell order."""

    name: str
    outcomes: List[CellOutcome] = field(default_factory=list)

    @property
    def ran(self) -> int:
        return sum(1 for o in self.outcomes if o.status == STATUS_RAN)

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.status == STATUS_CACHED)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status in (STATUS_FAILED, STATUS_TIMEOUT))

    @property
    def retried(self) -> int:
        """Cells that needed more than one execution."""
        return sum(1 for o in self.outcomes if o.attempts > 1)

    def summary(self) -> str:
        text = (
            f"{self.name}: {len(self.outcomes)} cells — "
            f"ran={self.ran} cached={self.cached} failed={self.failed}"
        )
        if self.retried:
            text += f" retried={self.retried}"
        return text

    def results(self) -> List[ExperimentResult]:
        """Successful results in cell order (cached and fresh alike)."""
        return [o.result for o in self.outcomes if o.result is not None]

    def failures(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status in (STATUS_FAILED, STATUS_TIMEOUT)]

    def raise_failures(self) -> None:
        """Re-raise the first cell failure (with every failing label listed)."""
        failures = self.failures()
        if not failures:
            return
        labels = ", ".join(o.cell.label for o in failures)
        raise RuntimeError(
            f"{len(failures)} campaign cell(s) failed ({labels}); first error:\n"
            f"{failures[0].error}"
        )


# --------------------------------------------------------------------------- #
# Chaos seam (tests / CI only; inert unless REPRO_CHAOS_MODE is set)
# --------------------------------------------------------------------------- #
def _chaos_inject(label: str) -> None:
    """Optionally sabotage this cell, as configured by ``REPRO_CHAOS_*``.

    ``REPRO_CHAOS_MODE`` picks the failure (``raise`` a transient error,
    ``kill`` the worker process, ``hang`` it past any watchdog);
    ``REPRO_CHAOS_LABEL`` scopes it to cells whose label contains the value;
    ``REPRO_CHAOS_DIR`` arms it at most once per (mode, label) via an
    atomically-created marker file — so a retried cell succeeds on its next
    attempt, which is exactly what chaos tests assert.
    """
    mode = os.environ.get("REPRO_CHAOS_MODE")
    if not mode:
        return
    wanted = os.environ.get("REPRO_CHAOS_LABEL", "")
    if wanted and wanted not in label:
        return
    marker_dir = os.environ.get("REPRO_CHAOS_DIR")
    if marker_dir:
        os.makedirs(marker_dir, exist_ok=True)
        token = re.sub(r"[^A-Za-z0-9_.-]", "_", f"{mode}-{wanted or 'any'}")
        try:
            fd = os.open(os.path.join(marker_dir, token), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
        except FileExistsError:
            return  # already fired once
    if mode == "raise":
        raise RuntimeError(f"chaos: injected transient failure in {label!r}")
    if mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if mode == "hang":
        time.sleep(3600.0)
    raise RuntimeError(f"unknown REPRO_CHAOS_MODE {mode!r}")


def _execute_cell(
    payload: Tuple[int, CampaignCell], share: _WorkloadShare
) -> Tuple[int, Optional[ExperimentResult], Optional[str], Optional[str], float]:
    """Train one cell; never raises (returns the traceback instead).

    ``share`` holds the pre-trained workloads of the campaign's earlier cells
    in this process (see :func:`run_campaign`).  The fourth element of the
    return value is the exception *type name* (the retry policy's transience
    classifier), the fifth the cell's own wall time in seconds (measured here
    so pooled and in-process execution report it identically).
    """
    index, cell = payload
    start = time.perf_counter()
    try:
        _chaos_inject(cell.label)
        with TRACER.span("campaign/cell", cat="campaign", label=cell.label):
            result = run_experiment(cell.config, cell.method, _share=share)
        return index, result, None, None, time.perf_counter() - start
    except Exception as error:  # noqa: BLE001 - fail-soft per cell by design
        return (
            index, None, traceback.format_exc(), type(error).__name__,
            time.perf_counter() - start,
        )


#: The share of the pool worker this module is loaded in: set once by
#: :func:`_worker_init`, dies with the worker when the campaign's pool closes.
#: ``None`` everywhere else (in-process execution passes its share down).
_WORKER_SHARE: Optional[_WorkloadShare] = None


def _execute_cell_in_worker(payload: Tuple[int, CampaignCell]):
    """Pool-worker entry point: per-cell seeding, then :func:`_execute_cell`.

    Module-level so it pickles into pool workers.  Forked workers inherit the
    parent's global numpy RNG state; re-seeding it from the cell seed isolates
    any stray global draws per cell.  The simulation itself only uses
    explicitly seeded generators, so this does not affect results — and it
    runs only in workers, never in the caller's process (in-process execution
    must not clobber the caller's RNG state).
    """
    np.random.seed(payload[1].config.seed % (2**32))
    outcome = _execute_cell(payload, _WORKER_SHARE)
    if TRACER.enabled:
        # Workers have no clean shutdown hook; flushing a cumulative metric
        # snapshot after every cell keeps the shared sink current (the
        # exporter takes the last snapshot per process).
        TRACER.flush_metrics()
    return outcome


def _worker_init(trace_sink: Optional[str] = None) -> None:
    """Pool-worker initializer: open the worker's workload share, join the
    trace sink.

    When the parent is tracing, each worker enables its own tracer against
    the same append-only JSONL sink — whole-line appends interleave safely,
    and the worker's pid keeps its tracks distinct.
    """
    global _WORKER_SHARE
    _WORKER_SHARE = _WorkloadShare()
    if trace_sink is not None:
        TRACER.enable(path=trace_sink, role="worker")


def default_jobs() -> int:
    """Worker count for ``jobs=None``: one per CPU, capped at 8."""
    return max(1, min(8, os.cpu_count() or 1))


def _is_transient(error_type: Optional[str]) -> bool:
    """Whether a failure with this exception type is worth retrying."""
    return error_type not in DETERMINISTIC_ERRORS


def retry_delay(failures: int, key: str, backoff: float) -> float:
    """Backoff before retry number ``failures`` of the cell keyed ``key``.

    Bounded exponential (``backoff * 2**(failures-1)``, capped at
    :data:`MAX_RETRY_DELAY`) times a deterministic jitter factor in
    ``[1, 2)`` derived from the cell fingerprint — cells of one sweep spread
    out instead of thundering back together, and reruns sleep identically.
    """
    jitter = 1.0 + int(key[:8], 16) / float(0xFFFFFFFF)
    return min(MAX_RETRY_DELAY, backoff * (2.0 ** (failures - 1))) * jitter


@dataclass
class _InFlight:
    """One cell currently executing in the pool."""

    position: int
    index: int
    cell: CampaignCell
    attempts: int
    handle: object
    started: float


def run_campaign(
    campaign: Union[CampaignSpec, Sequence[CampaignCell]],
    store: Optional[ResultStore] = None,
    jobs: Optional[int] = 1,
    progress: Optional[ProgressCallback] = None,
    recompute: bool = False,
    retries: int = 2,
    retry_backoff: float = 0.05,
    cell_timeout: Optional[float] = None,
) -> CampaignReport:
    """Execute a campaign: expand, check the cache, train what is missing.

    The pending cells of one call share their pre-trained workloads: cells
    that agree on every argument of
    :func:`~repro.simulation.experiment._pretrained_workload` (dataset, split,
    model, pre-training, compute dtype — most of a method x
    bandwidth x fault-plan grid) build the dataset and pre-train the model
    once, and each trains its own copy.  The share belongs to this call — one
    for in-process execution, one per pool worker, bounded in bytes — and is
    gone when it returns; results are bit-identical to running every cell
    alone with :func:`~repro.simulation.experiment.run_experiment`.

    Parameters
    ----------
    campaign:
        A :class:`CampaignSpec` (expanded here) or an explicit cell sequence.
    store:
        Result cache; ``None`` disables caching and persistence.  Fresh
        results are committed in cell order, so a parallel run writes the
        same store file a serial run would.
    jobs:
        Worker processes for the pending cells.  ``1`` (the default) executes
        in-process — the right mode for CI, tests and nested use (the training
        loop itself is single-process).  ``None`` picks :func:`default_jobs`.
        Pools of one worker, single-cell workloads, and platforms without
        multiprocessing support all fall back to in-process execution.
    progress:
        ``callback(progress)`` invoked once per settled cell with a
        :class:`Progress` (outcome, counts, per-cell elapsed, cache-hit
        flag, rolling ETA).
    recompute:
        Ignore cache hits and retrain every cell (results still overwrite the
        store).
    retries:
        Maximum retries per cell for *transient* failures (worker deaths,
        injected chaos, runtime errors); deterministic errors
        (:data:`DETERMINISTIC_ERRORS`) settle as failed immediately.  ``0``
        disables retrying.
    retry_backoff:
        Base seconds of the exponential backoff between attempts (see
        :func:`retry_delay`).
    cell_timeout:
        Per-cell watchdog in seconds: a pooled cell still running past it
        settles with status ``"timeout"`` and the pool is recycled so the
        hung worker cannot wedge the sweep.  ``None`` disables the watchdog;
        in-process execution cannot be preempted, so the watchdog only
        applies when a pool is running.
    """
    cells = campaign.expand() if isinstance(campaign, CampaignSpec) else list(campaign)
    name = campaign.name if isinstance(campaign, CampaignSpec) else "campaign"
    report = CampaignReport(name=name)
    total = len(cells)
    outcomes: List[Optional[CellOutcome]] = [None] * total
    done = 0
    started = time.perf_counter()

    # Cache pass: partition into served-from-store and pending cells.
    cached_outcomes: List[CellOutcome] = []
    pending: List[Tuple[int, CampaignCell, str]] = []
    for index, cell in enumerate(cells):
        key = cell.fingerprint()
        cached = store.get_by_key(key) if (store is not None and not recompute) else None
        if cached is not None:
            cached_outcomes.append(
                CellOutcome(
                    index=index, cell=cell, key=key, status=STATUS_CACHED,
                    result=cached, attempts=0,
                )
            )
        else:
            pending.append((index, cell, key))

    workers = min(default_jobs() if jobs is None else max(1, jobs), len(pending)) if pending else 1
    pending_left = len(pending)
    ran_elapsed: List[float] = []

    if TRACER.enabled:
        TRACER.metrics.inc("campaign.cache.hits", float(len(cached_outcomes)))
        TRACER.metrics.inc("campaign.cache.misses", float(len(pending)))
        TRACER.metrics.set_gauge("campaign.workers", float(workers))

    def settle(outcome: CellOutcome, elapsed: float) -> None:
        nonlocal done, pending_left
        outcomes[outcome.index] = outcome
        done += 1
        cache_hit = outcome.status == STATUS_CACHED
        if not cache_hit:
            pending_left -= 1
            if outcome.status == STATUS_RAN:
                ran_elapsed.append(elapsed)
        if TRACER.enabled:
            TRACER.metrics.inc(f"campaign.cells.{outcome.status}")
            if outcome.attempts > 1:
                TRACER.metrics.inc("campaign.cells.retries", float(outcome.attempts - 1))
        eta: Optional[float] = None
        if pending_left == 0:
            eta = 0.0
        elif ran_elapsed:
            eta = sum(ran_elapsed) / len(ran_elapsed) * pending_left / workers
        if progress is not None:
            progress(
                Progress(
                    outcome=outcome, done=done, total=total,
                    elapsed_s=elapsed, cache_hit=cache_hit, eta_s=eta,
                )
            )

    for outcome in cached_outcomes:
        settle(outcome, 0.0)

    # Execution pass: train pending cells, in a pool when it pays off.
    # Outcomes settle and persist in submission (= cell) order even though a
    # pool completes them out of order: finished cells are buffered until
    # every earlier pending cell has finished, so the store file a parallel
    # run writes is identical to the serial one.
    if pending:
        pool = None
        if workers > 1:
            trace_sink = TRACER.sink_path if TRACER.enabled else None
            pool_args = dict(
                processes=workers,
                initializer=_worker_init,
                initargs=(trace_sink,),
            )
            try:
                pool = multiprocessing.Pool(**pool_args)
            except (OSError, ImportError):
                # No usable multiprocessing (restricted sandboxes); run inline.
                pool = None
        try:
            if pool is not None:
                _run_pooled(
                    pool, pool_args, pending, store, settle,
                    retries=retries, retry_backoff=retry_backoff,
                    cell_timeout=cell_timeout,
                )
                pool = None  # _run_pooled owns (and closed) the final pool
            else:
                _run_inline(
                    pending, store, settle, retries=retries, retry_backoff=retry_backoff
                )
        finally:
            if pool is not None:
                pool.close()
                pool.join()

    if TRACER.enabled:
        # Utilization: fraction of the pool's capacity spent training.  With
        # in-process execution this approaches 1; with a pool it exposes
        # startup cost, stragglers and imbalance.
        wall = time.perf_counter() - started
        if ran_elapsed and wall > 0:
            TRACER.metrics.set_gauge(
                "campaign.worker_utilization", min(1.0, sum(ran_elapsed) / (workers * wall))
            )

    report.outcomes = [outcome for outcome in outcomes if outcome is not None]
    return report


def _run_inline(
    pending: Sequence[Tuple[int, CampaignCell, str]],
    store: Optional[ResultStore],
    settle: Callable[[CellOutcome, float], None],
    retries: int,
    retry_backoff: float,
) -> None:
    """Serial execution with the same retry policy as the pooled path."""
    share = _WorkloadShare()
    for index, cell, key in pending:
        attempts = 0
        elapsed_total = 0.0
        while True:
            attempts += 1
            _, result, error, error_type, elapsed = _execute_cell((index, cell), share)
            elapsed_total += elapsed
            if error is None:
                if store is not None:
                    store.put(cell.config, cell.method, result, attempts=attempts, key=key)
                settle(
                    CellOutcome(
                        index=index, cell=cell, key=key, status=STATUS_RAN,
                        result=result, attempts=attempts,
                    ),
                    elapsed_total,
                )
                break
            if attempts <= retries and _is_transient(error_type):
                time.sleep(retry_delay(attempts, key, retry_backoff))
                continue
            settle(
                CellOutcome(
                    index=index, cell=cell, key=key, status=STATUS_FAILED,
                    error=error, attempts=attempts,
                ),
                elapsed_total,
            )
            break


def _pool_pids(pool) -> Optional[frozenset]:
    """Worker pids of a multiprocessing pool (None if unavailable)."""
    try:
        return frozenset(worker.pid for worker in pool._pool)  # noqa: SLF001
    except Exception:  # pragma: no cover - implementation detail shifted
        return None


def _run_pooled(
    pool,
    pool_args: dict,
    pending: Sequence[Tuple[int, CampaignCell, str]],
    store: Optional[ResultStore],
    settle: Callable[[CellOutcome, float], None],
    retries: int,
    retry_backoff: float,
    cell_timeout: Optional[float],
) -> None:
    """Watchdogged pool execution: dispatch, poll, retry, recycle.

    The dispatch loop keeps up to ``processes`` cells in flight via
    ``apply_async`` and polls for completion.  Three hazards are handled:

    * a cell *fails* — retried after its backoff when transient and within
      budget, settled as failed otherwise;
    * a cell *hangs* past ``cell_timeout`` — settled with status
      ``"timeout"`` and the pool recycled (terminate + fresh pool), because a
      task abandoned inside ``Pool`` can never be cancelled individually;
    * a *worker dies* (OOM-kill, crash, injected chaos) — its task would
      never return, which the pid-set poll catches; every in-flight cell is
      resubmitted with its attempt count bumped (the dead worker's cell is
      unknowable, so all of them pay one attempt against the retry budget).
    """
    queue: Deque[Tuple[int, int, CampaignCell, int, float]] = deque(
        (position, index, cell, 1, 0.0)
        for position, (index, cell, _) in enumerate(pending)
    )
    in_flight: Dict[int, _InFlight] = {}
    buffered: Dict[int, Tuple[CellOutcome, float]] = {}
    next_commit = 0
    keys = [key for _, _, key in pending]  # by queue position
    pids = _pool_pids(pool)

    def commit_ready() -> None:
        nonlocal next_commit
        while next_commit in buffered:
            outcome, elapsed = buffered.pop(next_commit)
            if outcome.status == STATUS_RAN and store is not None:
                store.put(
                    outcome.cell.config, outcome.cell.method, outcome.result,
                    attempts=outcome.attempts, key=outcome.key,
                )
            settle(outcome, elapsed)
            next_commit += 1

    def finish(position: int, flight: _InFlight, outcome: CellOutcome, elapsed: float) -> None:
        buffered[position] = (outcome, elapsed)
        commit_ready()

    def recycle(timed_out: Optional[int]) -> None:
        """Terminate the wedged pool, spawn a fresh one, resubmit in-flight."""
        nonlocal pool, pids
        pool.terminate()
        pool.join()
        pool = multiprocessing.Pool(**pool_args)
        pids = _pool_pids(pool)
        now = time.monotonic()
        for position, flight in sorted(in_flight.items()):
            if position == timed_out:
                finish(
                    position, flight,
                    CellOutcome(
                        index=flight.index, cell=flight.cell, key=keys[position],
                        status=STATUS_TIMEOUT, attempts=flight.attempts,
                        error=(
                            f"cell exceeded watchdog timeout of {cell_timeout}s "
                            f"(attempt {flight.attempts}); worker recycled"
                        ),
                    ),
                    now - flight.started,
                )
            elif flight.attempts > retries:
                finish(
                    position, flight,
                    CellOutcome(
                        index=flight.index, cell=flight.cell, key=keys[position],
                        status=STATUS_FAILED, attempts=flight.attempts,
                        error=(
                            "worker process died while executing this cell "
                            f"(attempt {flight.attempts}/{retries + 1}); retry "
                            "budget exhausted"
                        ),
                    ),
                    now - flight.started,
                )
            else:
                queue.append(
                    (
                        position, flight.index, flight.cell, flight.attempts + 1,
                        now + retry_delay(flight.attempts, keys[position], retry_backoff),
                    )
                )
        in_flight.clear()

    try:
        while queue or in_flight:
            now = time.monotonic()
            # Fill free slots with due cells (skip those still backing off).
            for _ in range(len(queue)):
                if len(in_flight) >= pool_args["processes"]:
                    break
                position, index, cell, attempts, not_before = queue[0]
                if not_before > now:
                    queue.rotate(-1)
                    continue
                queue.popleft()
                handle = pool.apply_async(_execute_cell_in_worker, ((index, cell),))
                in_flight[position] = _InFlight(
                    position=position, index=index, cell=cell,
                    attempts=attempts, handle=handle, started=now,
                )

            # Poll for completions.
            completed = [
                (position, flight)
                for position, flight in sorted(in_flight.items())
                if flight.handle.ready()
            ]
            for position, flight in completed:
                del in_flight[position]
                try:
                    _, result, error, error_type, elapsed = flight.handle.get()
                except Exception:  # noqa: BLE001 - unpicklable result etc.
                    result, error, error_type, elapsed = (
                        None, traceback.format_exc(), "PoolError",
                        time.monotonic() - flight.started,
                    )
                if error is None:
                    finish(
                        position, flight,
                        CellOutcome(
                            index=flight.index, cell=flight.cell, key=keys[position],
                            status=STATUS_RAN, result=result, attempts=flight.attempts,
                        ),
                        elapsed,
                    )
                elif flight.attempts <= retries and _is_transient(error_type):
                    queue.append(
                        (
                            position, flight.index, flight.cell, flight.attempts + 1,
                            time.monotonic()
                            + retry_delay(flight.attempts, keys[position], retry_backoff),
                        )
                    )
                else:
                    finish(
                        position, flight,
                        CellOutcome(
                            index=flight.index, cell=flight.cell, key=keys[position],
                            status=STATUS_FAILED, error=error, attempts=flight.attempts,
                        ),
                        elapsed,
                    )

            if not in_flight and not queue:
                break

            # Watchdog: a cell past its deadline wedges its worker for good —
            # settle it as timed out and recycle the pool.
            if cell_timeout is not None and in_flight:
                now = time.monotonic()
                overdue = [
                    position
                    for position, flight in sorted(in_flight.items())
                    if now - flight.started > cell_timeout
                ]
                if overdue:
                    recycle(timed_out=overdue[0])
                    continue

            # Worker-death detection: a task on a killed worker never
            # returns, but the pool's pid set changes when it respawns.
            if in_flight:
                current = _pool_pids(pool)
                if pids is not None and current is not None and current != pids:
                    recycle(timed_out=None)
                    continue

            if not completed:
                time.sleep(0.01)
    finally:
        commit_ready()
        pool.close()
        pool.join()
