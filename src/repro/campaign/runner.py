"""Campaign execution: cache lookup, parallel training, fail-soft capture.

:func:`run_campaign` takes a :class:`~repro.campaign.spec.CampaignSpec` (or an
explicit cell list), serves unchanged cells from the
:class:`~repro.campaign.store.ResultStore`, and trains the remaining cells in
one dispatch loop over an executor: a ``concurrent.futures``
``ProcessPoolExecutor`` when ``jobs > 1``, otherwise an in-process executor
that runs each cell as it is submitted.  Every cell is independent and
internally seeded (``config.seed`` drives the dataset, model init, data order
and the compressor), so parallel and serial execution produce bit-identical
results; outcomes are committed to the store in cell order regardless of
completion order, keeping the store file deterministic too.  Independent does
not mean prepared from scratch: the cells of one campaign that agree on
dataset, split and pre-trained model share them (see :func:`run_campaign`),
which changes how long a sweep takes and nothing else.

The runner is hardened against its own failures — large fault-study sweeps
must survive the faults of the machine running them — with one policy for
both executors:

* a failing cell never aborts the sweep: its traceback is captured on the
  :class:`CellOutcome` (status ``"failed"``) and the rest keeps running
  (callers wanting fail-fast call :meth:`CampaignReport.raise_failures`);
* **transient** failures are retried with bounded exponential backoff and
  deterministic jitter (derived from the cell fingerprint, so two runs of the
  same sweep sleep identically); deterministic errors — ``ValueError`` and
  friends, which re-running cannot fix — are never retried;
* a **hung** worker is caught by the per-cell watchdog (``cell_timeout``),
  which kills the pool's workers: the overdue cell settles with status
  ``"timeout"``.  A **killed** worker breaks the pool the same way
  (``BrokenProcessPool``), so both take one path: the pool is replaced and
  every other cell it held pays one attempt and is resubmitted against its
  retry budget.

Chaos injection for tests and CI lives behind ``REPRO_CHAOS_MODE``
(``raise`` / ``kill`` / ``hang``), scoped by ``REPRO_CHAOS_LABEL`` (substring
of the cell label) and fired at most once when ``REPRO_CHAOS_DIR`` points at
a marker directory.
"""

from __future__ import annotations

import heapq
import os
import re
import signal
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

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

#: Base seconds of the exponential backoff between attempts (see
#: :func:`retry_delay`).
RETRY_BACKOFF = 0.05

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

    ``elapsed_s`` is the cell's own training wall time, summed over all its
    attempts (0 for cache hits); ``eta_s`` is a rolling estimate of the
    remaining run time — mean elapsed of the cells trained so far times the
    cells still pending, divided by the worker count — and ``None`` until the
    first fresh cell lands.
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
    cell: CampaignCell, share: _WorkloadShare
) -> Tuple[Optional[ExperimentResult], Optional[str], Optional[str], float]:
    """Train one cell; never raises (returns the traceback instead).

    ``share`` holds the pre-trained workloads of the campaign's earlier cells
    in this process (see :func:`run_campaign`).  The third element of the
    return value is the exception *type name* (the retry policy's transience
    classifier), the fourth the cell's own wall time in seconds (measured here
    so pooled and in-process execution report it identically).
    """
    start = time.perf_counter()
    try:
        _chaos_inject(cell.label)
        with TRACER.span("campaign/cell", cat="campaign", label=cell.label):
            result = run_experiment(cell.config, cell.method, _share=share)
        return result, None, None, time.perf_counter() - start
    except Exception as error:  # noqa: BLE001 - fail-soft per cell by design
        return None, traceback.format_exc(), type(error).__name__, time.perf_counter() - start


#: The share of the pool worker this module is loaded in: set once by
#: :func:`_worker_init`, dies with the worker when the campaign's pool closes.
#: ``None`` everywhere else (in-process execution passes its share down).
_WORKER_SHARE: Optional[_WorkloadShare] = None


def _execute_cell_in_worker(cell: CampaignCell):
    """Pool-worker entry point: per-cell seeding, then :func:`_execute_cell`.

    Module-level so it pickles into pool workers.  Forked workers inherit the
    parent's global numpy RNG state; re-seeding it from the cell seed isolates
    any stray global draws per cell.  The simulation itself only uses
    explicitly seeded generators, so this does not affect results — and it
    runs only in workers, never in the caller's process (in-process execution
    must not clobber the caller's RNG state).
    """
    np.random.seed(cell.config.seed % (2**32))
    outcome = _execute_cell(cell, _WORKER_SHARE)
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


def check_retry_policy(retries: int, cell_timeout: Optional[float]) -> None:
    """Reject a retry budget or a watchdog the runner cannot honour."""
    if retries < 0:
        raise ValueError(f"retries must be 0 or more, got {retries}")
    if cell_timeout is not None and not cell_timeout > 0:
        raise ValueError(f"timeout must be a positive number of seconds, got {cell_timeout}")


def check_worker_count(jobs: Optional[int]) -> None:
    """Reject a negative worker count (``0`` and ``None`` mean one per CPU)."""
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be 0 or more, got {jobs}")


class _InProcessExecutor:
    """The executor of ``jobs == 1``: ``submit`` runs the call at once, in
    this process, and returns its future already done."""

    def submit(self, fn: Callable, *args) -> Future:
        future: Future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait: bool = True) -> None:
        """Nothing to release: every call ran inside :meth:`submit`."""


def run_campaign(
    campaign: Union[CampaignSpec, Sequence[CampaignCell]],
    store: Optional[ResultStore] = None,
    jobs: Optional[int] = 1,
    progress: Optional[ProgressCallback] = None,
    recompute: bool = False,
    retries: int = 2,
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
        loop itself is single-process).  ``None`` picks :func:`default_jobs`;
        a negative count raises ``ValueError``.
        Pools of one worker, single-cell workloads, and platforms without
        multiprocessing support all fall back to in-process execution; either
        way the same loop dispatches, retries and commits.
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
        disables retrying; a negative budget raises ``ValueError``.  Retries
        wait :func:`retry_delay` seconds first.
    cell_timeout:
        Per-cell watchdog in seconds: a pooled cell still running past it
        settles with status ``"timeout"``, and the pool's workers are killed
        and replaced so the hung one cannot wedge the sweep.  ``None``
        disables the watchdog, and a value that is not positive raises
        ``ValueError``; in-process execution cannot be preempted, so the
        watchdog only applies when a pool is running.
    """
    check_retry_policy(retries, cell_timeout)
    check_worker_count(jobs)
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
    if pending:
        _dispatch(pending, store, settle, workers, retries, cell_timeout)

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


def _dispatch(
    pending: Sequence[Tuple[int, CampaignCell, str]],
    store: Optional[ResultStore],
    settle: Callable[[CellOutcome, float], None],
    workers: int,
    retries: int,
    cell_timeout: Optional[float],
) -> None:
    """Train the pending cells: submit, wait, settle, retry, commit in order.

    Up to ``workers`` cells are in flight; the loop sleeps only in
    ``wait``, until a cell finishes, a backoff ends or a watchdog deadline
    passes.  A failed attempt is retried after :func:`retry_delay` when it is
    transient and within budget, and settles as failed otherwise.  A finished
    cell is held until every earlier pending cell has finished, then
    committed to the store and settled with the wall time of all its
    attempts, so a pooled run writes the store file a serial one would.

    A pool that breaks is replaced.  It breaks when a worker dies (OOM kill,
    crash, injected chaos) or when the watchdog kills the workers under a cell
    running past ``cell_timeout``; that cell settles as ``"timeout"``, and
    every other cell the pool held pays one attempt (which cell a dead
    worker ran is unknowable) and is resubmitted on the fresh pool.
    """
    executor = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # noqa: PLC0415 - only pools load it

        trace_sink = TRACER.sink_path if TRACER.enabled else None
        open_executor = partial(
            ProcessPoolExecutor, workers, initializer=_worker_init, initargs=(trace_sink,)
        )
        task: Callable = _execute_cell_in_worker
        try:
            executor = open_executor()
        except (OSError, ImportError, NotImplementedError):
            workers = 1  # no usable multiprocessing (restricted sandboxes)
    if executor is None:
        open_executor = _InProcessExecutor
        executor, task = open_executor(), partial(_execute_cell, share=_WorkloadShare())

    # A heap of (not before, position, attempt); positions index ``pending``.
    queue: List[Tuple[float, int, int]] = [(0.0, position, 1) for position in range(len(pending))]
    running: Dict[Future, Tuple[int, int, float]] = {}  # -> (position, attempt, started)
    overdue: Set[int] = set()
    spent = [0.0] * len(pending)
    finished: Dict[int, CellOutcome] = {}
    committed = 0
    try:
        while queue or running:
            broken = False
            while queue and len(running) < workers and queue[0][0] <= time.monotonic():
                not_before, position, attempt = heapq.heappop(queue)
                try:
                    future = executor.submit(task, pending[position][1])
                except BrokenExecutor:  # a worker died after the last wait
                    heapq.heappush(queue, (not_before, position, attempt))
                    broken = True
                    break
                running[future] = (position, attempt, time.monotonic())
            if not broken:
                wakes = [] if cell_timeout is None else [
                    started + cell_timeout
                    for position, _, started in running.values() if position not in overdue
                ]
                if queue and len(running) < workers:
                    wakes.append(queue[0][0])
                timeout = max(0.0, min(wakes) - time.monotonic()) if wakes else None
                done, _ = wait(running, timeout=timeout, return_when=FIRST_COMPLETED)
                broken = any(isinstance(future.exception(), BrokenExecutor) for future in done)
            if broken:
                executor.shutdown(wait=True)  # returns once every future it held is done
                executor = open_executor()
                done = set(running)

            now = time.monotonic()
            for future in sorted(done, key=lambda future: running[future][0]):
                position, attempt, started = running.pop(future)
                index, cell, key = pending[position]
                failure = future.exception()
                if failure is None:
                    result, error, error_type, elapsed = future.result()
                else:  # the pool broke under the cell, or its result did not come back
                    result, error_type, elapsed = None, type(failure).__name__, now - started
                    error = "".join(traceback.format_exception(failure))
                spent[position] += elapsed
                if isinstance(failure, BrokenExecutor) and position in overdue:
                    status = STATUS_TIMEOUT
                    error = (
                        f"cell exceeded watchdog timeout of {cell_timeout}s "
                        f"(attempt {attempt}); worker recycled"
                    )
                elif error is None:
                    status = STATUS_RAN
                elif attempt <= retries and _is_transient(error_type):
                    not_before = now + retry_delay(attempt, key, RETRY_BACKOFF)
                    heapq.heappush(queue, (not_before, position, attempt + 1))
                    continue
                else:
                    status = STATUS_FAILED
                finished[position] = CellOutcome(
                    index=index, cell=cell, key=key, status=status,
                    result=result, error=error, attempts=attempt,
                )
            while committed in finished:
                outcome = finished.pop(committed)
                if outcome.status == STATUS_RAN and store is not None:
                    store.put(
                        outcome.cell.config, outcome.cell.method, outcome.result,
                        attempts=outcome.attempts, key=outcome.key,
                    )
                settle(outcome, spent[committed])
                committed += 1

            # Watchdog: kill the pool under a cell past its deadline; the
            # next wait sees every future it held fail with BrokenProcessPool.
            if cell_timeout is not None:
                now = time.monotonic()
                late = {p for p, _, started in running.values() if now - started >= cell_timeout}
                if late - overdue:
                    overdue |= late
                    # Python 3.11 has no public way to kill a worker.
                    for process in list(executor._processes.values()):  # noqa: SLF001
                        process.kill()
    finally:
        executor.shutdown(wait=True)
